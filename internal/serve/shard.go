package serve

import (
	"encoding/json"
	"io"
	"net/http"

	"memsci/internal/cluster"
	"memsci/internal/obs"
)

// isForwarded reports whether a peer already relayed this request once;
// such requests are always served locally (loop prevention) and skip
// tenant quotas (the entry node charged them).
func isForwarded(r *http.Request) bool {
	return r.Header.Get(cluster.ForwardedHeader) != ""
}

// shardOwner resolves the owning peer for a fingerprint. remote is false
// when sharding is disabled, this node owns the key, or the request was
// already forwarded.
func (s *Server) shardOwner(r *http.Request, key string) (owner cluster.Peer, remote bool) {
	if s.ring == nil || isForwarded(r) {
		return s.self, false
	}
	owner = s.ring.Owner(key)
	return owner, owner.ID != s.cfg.NodeID
}

// maxRelayDecodeBytes bounds the forwarded solve response this node will
// buffer to graft the owner's span tree (solution vectors for MaxRows
// systems fit comfortably; past this the relay streams verbatim).
const maxRelayDecodeBytes = 64 << 20

// relayToOwner forwards the validated request body to the owning peer
// and, on success, copies the peer's response (any status — the owner's
// admission decisions propagate) to the client. It returns false when
// the owner is unreachable after retries; the caller then degrades to a
// local solve, which re-programs the matrix here but keeps the service
// answering (counted in memserve_forward_fallback_total).
//
// The forward carries this request's ID and the forward span's
// traceparent, so the owner joins the entry node's trace and logs under
// the same request ID. With root non-nil (a traced /solve), a successful
// solve response is decoded, the owner's span tree grafted under fwdSp,
// and the whole single-trace tree re-encoded in the relayed body — the
// client sees one coherent trace covering both nodes.
func (s *Server) relayToOwner(w http.ResponseWriter, r *http.Request, spec *solveSpec, owner cluster.Peer, path string, root, fwdSp *obs.Span) bool {
	hdr := http.Header{}
	if v := r.Header.Get(apiKeyHeader); v != "" {
		hdr.Set(apiKeyHeader, v)
	}
	if id := RequestID(r.Context()); id != "" {
		hdr.Set(cluster.RequestIDHeader, id)
	}
	if sc := fwdSp.Context(); sc.Valid() {
		hdr.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := s.fwd.Forward(r.Context(), owner, path, spec.raw, hdr)
	if err != nil {
		s.metrics.forwardFallback.Inc()
		s.logger.Warn("forward failed; degrading to local solve",
			"id", RequestID(r.Context()), "owner", owner.ID, "owner_url", owner.URL, "err", err)
		return false
	}
	defer resp.Body.Close()
	s.metrics.forwarded.Inc()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get(retryAfterHeaderName); ra != "" {
		w.Header().Set(retryAfterHeaderName, ra)
	}
	w.Header().Set(cluster.NodeHeader, owner.ID)

	// Anything else, or an answer that cannot be read or decoded, is
	// relayed as-is: the client still gets it, without the graft.
	var sr SolveResponse
	var body []byte
	graft := root != nil && path == "/solve" && resp.StatusCode == http.StatusOK
	if graft {
		body, err = io.ReadAll(io.LimitReader(resp.Body, maxRelayDecodeBytes))
		graft = err == nil && json.Unmarshal(body, &sr) == nil
	}
	if graft {
		fwdSp.Graft(sr.Span)
		fwdSp.End()
		root.End()
		sr.Span = root
		writeJSON(w, resp.StatusCode, &sr)
	} else {
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		_, _ = io.Copy(w, resp.Body)
	}
	s.logger.Info("forwarded",
		"id", RequestID(r.Context()),
		"path", path,
		"owner", owner.ID,
		"status", resp.StatusCode,
		"key", spec.key,
	)
	return true
}

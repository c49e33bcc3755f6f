package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent hardens the parser a peer's Traceparent header
// reaches: never a panic, and an accepted header yields a valid context
// that round-trips through Traceparent unchanged.
func FuzzParseTraceparent(f *testing.F) {
	const trace, span = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	f.Add("00-" + trace + "-" + span + "-01")
	f.Add("00-" + strings.ToUpper(trace) + "-" + span + "-01")
	f.Add("00-" + strings.Repeat("0", 32) + "-" + span + "-01")
	f.Add("ff-" + trace + "-" + span + "-01")
	f.Add("00-" + trace + "-" + span + "-01-00")
	f.Add("  00-" + trace + "-" + span + "-01 ")
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !c.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted invalid %+v", s, c)
		}
		if back, ok := ParseTraceparent(c.Traceparent()); !ok || back != c {
			t.Fatalf("ParseTraceparent(%q) = %+v does not round-trip: %+v ok=%v", s, c, back, ok)
		}
	})
}

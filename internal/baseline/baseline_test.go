package baseline

import "testing"

// TestTagCodecRoundTrip exercises the Graunke–Thakkar tail encoding.
func TestTagCodecRoundTrip(t *testing.T) {
	for p := 0; p < 10; p++ {
		for bit := 0; bit < 2; bit++ {
			gp, gb := decodeTag(encodeTag(p, bit))
			if gp != p || gb != bit {
				t.Fatalf("roundtrip (%d,%d) → (%d,%d)", p, bit, gp, gb)
			}
		}
	}
}

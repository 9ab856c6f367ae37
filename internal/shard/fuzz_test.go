package shard

import "testing"

// FuzzParseSpec: ParseSpec never panics, and every spec it accepts
// round-trips through String() to an equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"1/1", "2/3", " 3 / 3 ", "0/2", "3/2", "1/0", "-1/-1", "+1/02", "1/", "x/y", "9223372036854775807/9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		back, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("%q: String() %q does not re-parse: %v", s, sp.String(), err)
		}
		if back != sp {
			t.Fatalf("%q: round trip through %q changed the spec: %+v -> %+v", s, sp.String(), sp, back)
		}
	})
}

package dist

import (
	"slices"
	"testing"
)

// FuzzParseFaultPlan: every plan ParseFaultPlan accepts must re-parse
// from its String() form to an equal plan. A value the parser accepts
// but String cannot render back (an overflowing ms=, an ms= on a rule
// that ignores it) breaks the round trip.
func FuzzParseFaultPlan(f *testing.F) {
	for _, s := range []string{
		"", "kill:nth=1", "delay:nth=2,ms=5000", "drop:nth=1;delay:nth=3,ms=250 ;corrupt:nth=2",
		"delay:nth=1,ms=18446744073710", "kill:nth=1,ms=5", "kill:nth=+01,nth=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		q, err := ParseFaultPlan(p.String())
		if len(p.rules) == 0 {
			// An empty plan renders as "none", its log form.
			if p.String() != "none" {
				t.Fatalf("%q: empty plan renders %q", spec, p.String())
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: String() %q does not re-parse: %v", spec, p.String(), err)
		}
		if !slices.Equal(p.rules, q.rules) {
			t.Fatalf("%q: round trip through %q changed the plan: %+v -> %+v", spec, p.String(), p.rules, q.rules)
		}
	})
}

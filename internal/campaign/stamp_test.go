package campaign

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// stampExempt names the Stamp fields Mismatch deliberately skips: scale
// and horizon are attested per scenario and unioned by shard merges.
var stampExempt = map[string]bool{"ScaleMilli": true, "HorizonNs": true}

// TestStampMismatchCoversEveryField perturbs each Stamp field in turn
// and asserts Mismatch reports it by its JSON name — so a field added
// to the stamp without joining the comparison fails here.
func TestStampMismatchCoversEveryField(t *testing.T) {
	base := RunnerOpts{BaseSeed: 42, Metrics: true}.Stamp()
	if err := base.Mismatch(base); err != nil {
		t.Fatalf("a stamp mismatches itself: %v", err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		other := base
		v := reflect.ValueOf(&other).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.String:
			v.SetString(v.String() + "-other")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("Stamp.%s has kind %s; teach this test to perturb it", field.Name, v.Kind())
		}
		err := other.Mismatch(base)
		if stampExempt[field.Name] {
			if err != nil {
				t.Errorf("Stamp.%s is exempt but Mismatch reported %v", field.Name, err)
			}
			continue
		}
		name, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		if err == nil {
			t.Errorf("Mismatch ignores Stamp.%s", field.Name)
		} else if !strings.HasPrefix(err.Error(), name+" ") {
			t.Errorf("Mismatch on Stamp.%s = %q, want it to name %q", field.Name, err, name)
		}
	}
}

// TestRunnerOptsStampMatchesArtifact: the stamp a caller expects
// (RunnerOpts.Stamp) is the one AssembleArtifact writes, apart from the
// scenario-derived scale and horizon, with metrics on and off.
func TestRunnerOptsStampMatchesArtifact(t *testing.T) {
	scs := testMatrix().Scenarios()[:1]
	for _, opts := range []RunnerOpts{
		{BaseSeed: 42},
		{BaseSeed: 7, Metrics: true, MetricsCadence: 5 * sim.Millisecond, StreakK: 6},
	} {
		c, err := RunScenarios(scs, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Stamp
		if got.ScaleMilli != 100 || got.HorizonNs != int64(200*sim.Second) {
			t.Errorf("metrics=%v: scale/horizon stamp %d/%d, want 100/%d",
				opts.Metrics, got.ScaleMilli, got.HorizonNs, int64(200*sim.Second))
		}
		got.ScaleMilli, got.HorizonNs = 0, 0
		if want := opts.Stamp(); got != want {
			t.Errorf("metrics=%v: artifact stamp %+v, RunnerOpts.Stamp %+v", opts.Metrics, got, want)
		}
	}
}

// TestStampKeepsBaselineBytes decodes and re-encodes the committed
// campaign baselines: the embedded Stamp must reproduce the header key
// order byte for byte.
func TestStampKeepsBaselineBytes(t *testing.T) {
	for _, path := range []string{"../../baselines/campaign-smoke.json", "../../baselines/campaign-default.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out, err := c.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("%s does not re-encode byte for byte", path)
		}
	}
}

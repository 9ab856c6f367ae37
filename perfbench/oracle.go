package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bisect"
	"repro/internal/campaign"
	"repro/internal/explain"
)

// fingerprint is what an oracle compares: the hash of a pass's whole
// output and, where the oracle knows them, the hash of each scenario's
// part of it. Passes keep fingerprints, not outputs, so a run holds
// no more memory than one pass needs.
type fingerprint struct {
	whole [32]byte
	// parts maps a scenario key to the hash of its output; nil when the
	// oracle pins only the whole output.
	parts map[string][32]byte
}

func (f *fingerprint) addPart(key string, data []byte) {
	if f.parts == nil {
		f.parts = map[string][32]byte{}
	}
	f.parts[key] = sha256.Sum256(data)
}

// addResults hashes each result of c under prefix+key.
func (f *fingerprint) addResults(prefix string, c *campaign.Campaign) error {
	for i := range c.Results {
		b, err := json.Marshal(&c.Results[i])
		if err != nil {
			return err
		}
		f.addPart(prefix+c.Results[i].Key, b)
	}
	return nil
}

// mismatches counts the scenarios of a pass of n scenarios whose output
// differs from the oracle's. When every scenario matches but the whole
// output does not (an analysis over the results went wrong), or when
// the oracle pins only the whole output, every scenario counts.
func mismatches(got, want fingerprint, n int) int {
	if want.parts == nil {
		if got.whole != want.whole {
			return n
		}
		return 0
	}
	bad := 0
	for k, h := range got.parts {
		if w, ok := want.parts[k]; !ok || w != h {
			bad++
		}
	}
	for k := range want.parts {
		if _, ok := got.parts[k]; !ok {
			bad++
		}
	}
	if bad == 0 && got.whole != want.whole {
		bad = n
	}
	return min(bad, n)
}

// bisectFingerprint fingerprints a bisect report: its encoded bytes as
// a whole, and each embedded campaign result.
func bisectFingerprint(r *bisect.Report) (fingerprint, error) {
	b, err := r.EncodeJSON()
	if err != nil {
		return fingerprint{}, err
	}
	fp := fingerprint{whole: sha256.Sum256(b)}
	return fp, fp.addResults("", r.Campaign)
}

// bisectOracle fingerprints a committed bisect report r, loaded from
// path: the file's bytes as a whole, and each result re-encoded the way
// a pass encodes it.
func bisectOracle(path string, r *bisect.Report) (fingerprint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return fingerprint{}, err
	}
	fp := fingerprint{whole: sha256.Sum256(data)}
	return fp, fp.addResults("", r.Campaign)
}

// explainReport is the distilled explain artifact cmd/explain writes
// (and baselines/explain-smoke.json holds): each scenario's explain
// block and each cell's attribution cross-check.
type explainReport struct {
	Version   int               `json:"version"`
	Source    string            `json:"source"`
	Scenarios []explainScenario `json:"scenarios"`
	Cells     []explainCell     `json:"cells,omitempty"`
}

type explainScenario struct {
	Key     string          `json:"key"`
	Explain json.RawMessage `json:"explain"`
}

type explainCell struct {
	Key   string          `json:"key"`
	Check json.RawMessage `json:"explain_check"`
}

// distillExplain renders a bisect report's explain data exactly as
// cmd/explain distills it, and returns it both as a value and as bytes.
func distillExplain(r *bisect.Report) (explainReport, []byte, error) {
	rep := explainReport{Version: 1, Source: "bisect"}
	for i := range r.Campaign.Results {
		res := &r.Campaign.Results[i]
		if res.Explain == nil {
			continue
		}
		b, err := json.Marshal(res.Explain)
		if err != nil {
			return rep, nil, err
		}
		rep.Scenarios = append(rep.Scenarios, explainScenario{Key: res.Key, Explain: b})
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.ExplainCheck == nil {
			continue
		}
		b, err := json.Marshal(c.ExplainCheck)
		if err != nil {
			return rep, nil, err
		}
		rep.Cells = append(rep.Cells, explainCell{Key: c.Key(), Check: b})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return rep, nil, err
	}
	return rep, buf.Bytes(), nil
}

// decodeExplain decodes a distilled explain report.
func decodeExplain(data []byte) (explainReport, error) {
	var rep explainReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("decoding explain report: %w", err)
	}
	return rep, nil
}

// explainFingerprint fingerprints a distilled explain report, rep as
// decoded from data: the bytes as a whole, and each scenario's
// compacted explain block.
func explainFingerprint(rep explainReport, data []byte) (fingerprint, error) {
	fp := fingerprint{whole: sha256.Sum256(data), parts: map[string][32]byte{}}
	for _, s := range rep.Scenarios {
		var buf bytes.Buffer
		if err := json.Compact(&buf, s.Explain); err != nil {
			return fingerprint{}, err
		}
		fp.addPart(s.Key, buf.Bytes())
	}
	return fp, nil
}

// explainEvents counts the engine events of every replay window in r:
// work the explain layer simulates beyond the scenarios' own events.
func explainEvents(r *explain.ScenarioExplain) uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, ep := range r.Episodes {
		n += ep.Control.Events
		for _, f := range ep.Fixes {
			n += f.Events
		}
	}
	return n
}

func baselinePath(root, name string) string {
	return filepath.Join(root, "baselines", name)
}

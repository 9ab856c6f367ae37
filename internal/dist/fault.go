package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FaultKind names one injectable failure mode. Each reproduces a real
// distributed-systems failure the coordinator must absorb without the
// merged artifact drifting a byte from the single-process run.
type FaultKind string

const (
	// FaultKill kills the worker mid-shard: the shard starts executing
	// and the worker dies after its first scenario completes (os.Exit in
	// the campaignw process; permanent connection-abort in tests). The
	// coordinator must detect the loss and re-run the shard elsewhere.
	FaultKill FaultKind = "kill"
	// FaultDrop runs the shard to completion and then drops the
	// check-in: the connection aborts with no response, modeling a
	// network partition at the worst moment. The work is lost; the
	// retry must reproduce it exactly.
	FaultDrop FaultKind = "drop"
	// FaultDelay runs the shard and then stalls the configured duration
	// before responding — a straggler. Depending on the coordinator's
	// deadlines this exercises work stealing (duplicate discarded) or
	// retry (late response ignored).
	FaultDelay FaultKind = "delay"
	// FaultCorrupt runs the shard and responds with a mangled payload.
	// Check-in verification must reject it, never merge it.
	FaultCorrupt FaultKind = "corrupt"
)

// FaultRule arms one fault on one /v1/run request: the Nth run request
// this worker receives (1-based) trips Kind. Keying on the worker's own
// request ordinal keeps injection deterministic — it does not depend on
// which shard the races of dispatch happened to assign.
type FaultRule struct {
	Kind FaultKind
	// Nth is the 1-based /v1/run request index the rule fires on.
	Nth int
	// Delay is the stall duration for FaultDelay.
	Delay time.Duration
}

// FaultPlan is a deterministic schedule of FaultRules for one worker.
// The zero value (and nil) injects nothing.
type FaultPlan struct {
	mu    sync.Mutex
	rules []FaultRule
	seen  int
}

// NewFaultPlan builds a plan from rules.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	return &FaultPlan{rules: rules}
}

// maxDelayMs is the largest ms= value a time.Duration holds.
const maxDelayMs = int(math.MaxInt64 / int64(time.Millisecond))

// ParseFaultPlan parses the CLI form: semicolon-separated rules, each
// "kind:nth=N[,ms=M]", e.g. "kill:nth=1" or "delay:nth=2,ms=5000".
// Empty input returns an empty plan.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, args, _ := strings.Cut(part, ":")
		r := FaultRule{Kind: FaultKind(kind)}
		switch r.Kind {
		case FaultKill, FaultDrop, FaultDelay, FaultCorrupt:
		default:
			return nil, fmt.Errorf("dist: unknown fault kind %q (want kill, drop, delay or corrupt)", kind)
		}
		for _, kv := range strings.Split(args, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("dist: fault rule %q: %q is not key=value", part, kv)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("dist: fault rule %q: bad %s value %q", part, k, v)
			}
			switch k {
			case "nth":
				r.Nth = n
			case "ms":
				if n > maxDelayMs || n < -maxDelayMs {
					return nil, fmt.Errorf("dist: fault rule %q: ms=%s overflows a duration", part, v)
				}
				r.Delay = time.Duration(n) * time.Millisecond
			default:
				return nil, fmt.Errorf("dist: fault rule %q: unknown key %q (want nth or ms)", part, k)
			}
		}
		if r.Nth < 1 {
			return nil, fmt.Errorf("dist: fault rule %q: nth must be >= 1", part)
		}
		if r.Kind == FaultDelay && r.Delay <= 0 {
			return nil, fmt.Errorf("dist: fault rule %q: delay needs ms=<positive>", part)
		}
		if r.Kind != FaultDelay && r.Delay != 0 {
			return nil, fmt.Errorf("dist: fault rule %q: ms applies only to delay rules", part)
		}
		p.rules = append(p.rules, r)
	}
	return p, nil
}

// next advances the worker's run-request ordinal and returns the rule
// armed for it, if any. Safe for concurrent use; a nil plan never
// fires.
func (p *FaultPlan) next() *FaultRule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen++
	for i := range p.rules {
		if p.rules[i].Nth == p.seen {
			return &p.rules[i]
		}
	}
	return nil
}

// String renders the plan in its parseable form, for logs.
func (p *FaultPlan) String() string {
	if p == nil || len(p.rules) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(p.rules))
	for _, r := range p.rules {
		s := fmt.Sprintf("%s:nth=%d", r.Kind, r.Nth)
		if r.Kind == FaultDelay {
			s += fmt.Sprintf(",ms=%d", r.Delay/time.Millisecond)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

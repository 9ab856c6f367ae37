package sched

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Domain is one level of a core's scheduling-domain hierarchy (§2.2.1,
// Figure 1): SMT pair, NUMA node (LLC), then one ring of NUMA levels per
// hop distance. Each core holds its own []*Domain slice, bottom-up.
//
// Two of the paper's bugs live here:
//
//   - Scheduling Group Construction (§3.2): at node-spanning levels whose
//     groups overlap, the buggy kernel builds the group list once, from the
//     perspective of the first core of the domain span (Core 0 at the
//     machine level), and every core reuses it. The fix builds the list
//     from the perspective of the core that owns this Domain value.
//
//   - Missing Scheduling Domains (§3.4): after a core is disabled and
//     re-enabled, the buggy regeneration path drops all node-spanning
//     levels, so "threads can only run on the node on which they ran
//     before the core had been disabled".
type Domain struct {
	Level    int
	Name     string
	Span     CPUSet   // online cores covered by this domain
	Groups   []CPUSet // scheduling groups, each a subset of Span
	Interval sim.Time // periodic balance cadence for this level

	// local is the index in Groups of the owning core's group (-1 when
	// absent), precomputed at construction so balance passes don't
	// re-scan the group list. Each core holds its own Domain values, so
	// the owner is unambiguous.
	local int
	// localMask is the precomputed group_balance_mask of the local group
	// (see groupBalanceMask): the designated-core check runs on every
	// due balance level, and the mask only depends on the hierarchy.
	localMask CPUSet
}

// localGroup returns the index of the group containing cpu, or -1.
func (d *Domain) localGroup(cpu topology.CoreID) int {
	for i, g := range d.Groups {
		if g.Has(cpu) {
			return i
		}
	}
	return -1
}

// String renders the domain for debugging and the Figure 1 printout.
func (d *Domain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L%d %-7s span=%s groups=[", d.Level, d.Name, d.Span)
	for i, g := range d.Groups {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(g.String())
	}
	b.WriteString("]")
	return b.String()
}

// domainKey identifies one interned hierarchy. It holds everything
// construction reads: the machine's structure (topology.Shape, not its
// name or pointer — every scenario builds a fresh Topology), the
// bottom-level balance interval, the online set, whether node-spanning
// levels are built (the Missing Domains fix, §3.4) and the construction
// perspective (the Group Construction fix, §3.2). Equal keys always
// yield structurally equal per-core hierarchies, so one built hierarchy
// serves every scheduler, fork and replay that reaches the key.
type domainKey struct {
	shape       string
	interval    sim.Time
	online      CPUSet
	includeNUMA bool
	gcFixed     bool
}

// maxInternedHierarchies caps the intern table. A long-lived process (a
// campaign worker) sees a bounded set of machines, intervals and fix
// flags, but hotplug workloads can reach many online sets; past the cap
// a miss builds a private hierarchy that is not interned. Building an
// entry of a 64-core builtin machine allocates at most about 110 KB, so
// a full table holds under 60 MB.
const maxInternedHierarchies = 512

// hierarchies is the process-wide intern table: per-core domain lists
// indexed by core id (nil for offline cores). Domain values are
// immutable once published — localMask included — so schedulers on
// different goroutines share them without further locking.
var hierarchies = &hierarchyTable{}

type hierarchyTable struct {
	mu     sync.Mutex
	m      map[domainKey][][]*Domain
	builds int // hierarchies constructed, interned or not
}

// lookup returns the interned hierarchy for k, building it on a miss.
// Construction runs outside the lock; when two goroutines miss on one
// key, the first to publish wins and the other adopts its hierarchy, so
// every caller of a key sees the same pointers.
func (t *hierarchyTable) lookup(topo *topology.Topology, k domainKey) [][]*Domain {
	t.mu.Lock()
	h, ok := t.m[k]
	t.mu.Unlock()
	if ok {
		return h
	}
	h = buildHierarchy(topo, k)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.builds++
	if prev, ok := t.m[k]; ok {
		return prev
	}
	if len(t.m) < maxInternedHierarchies {
		if t.m == nil {
			t.m = map[domainKey][][]*Domain{}
		}
		t.m[k] = h
	}
	return h
}

// hierarchy returns the per-core hierarchies this scheduler's machine
// has under the given construction flags at the current online set.
func (s *Scheduler) hierarchy(includeNUMA, gcFixed bool) [][]*Domain {
	return hierarchies.lookup(s.topo, domainKey{
		shape:       s.topo.Shape(),
		interval:    s.cfg.BalanceInterval,
		online:      s.online,
		includeNUMA: includeNUMA,
		gcFixed:     gcFixed,
	})
}

// includeNUMA reports whether construction builds the node-spanning
// levels: always, unless a hotplug event broke them and the Missing
// Domains fix is off.
func (s *Scheduler) includeNUMA() bool {
	return !s.domainsBroken || s.cfg.Features.FixMissingDomains
}

// rebuildDomains regenerates every core's domain hierarchy, as the
// kernel does when the topology or the online set changes. It implements
// the Missing Scheduling Domains bug: after a hotplug event, with the
// fix disabled, only the intra-node levels are regenerated — the paper's
// "the call to the function generating domains across NUMA nodes was
// dropped by Linux developers during code refactoring".
//
// The hierarchy itself comes from the intern table, so only the first
// rebuild of a key in the process constructs anything; the per-level
// balance bookkeeping is reset on every rebuild (reusing the backing
// arrays), and DomainRebuilds counts rebuilds, not table misses.
func (s *Scheduler) rebuildDomains() {
	s.installDomains(false)
	s.counters.DomainRebuilds++
	s.probeDomainsCheck()
}

// installDomains points every core at its hierarchy under the current
// flags and resets its periodic-balance schedule. With keepEqual, a core
// whose new list equals its old one keeps its schedule (see
// ApplyFeatures).
func (s *Scheduler) installDomains(keepEqual bool) {
	hier := s.hierarchy(s.includeNUMA(), s.cfg.Features.FixGroupConstruction)
	now := s.eng.Now()
	for _, c := range s.cpus {
		doms := hier[c.id]
		if keepEqual && domainsEqual(c.domains, doms) {
			c.domains = doms
			continue
		}
		c.domains = doms
		n := len(doms)
		if cap(c.nextBalance) < n {
			c.nextBalance = make([]sim.Time, n)
			c.balanceFailed = make([]int, n)
		}
		c.nextBalance = c.nextBalance[:n]
		c.balanceFailed = c.balanceFailed[:n]
		for i, d := range doms {
			c.nextBalance[i] = now + d.Interval
			c.balanceFailed[i] = 0
		}
	}
}

// buildHierarchy constructs the per-core hierarchies for k, balance
// masks included. It reads nothing but topo's structure and k.
func buildHierarchy(topo *topology.Topology, k domainKey) [][]*Domain {
	hier := make([][]*Domain, topo.NumCores())
	k.online.ForEach(func(c topology.CoreID) {
		hier[c] = buildDomains(topo, k, c)
	})
	// The balance masks compare the per-core views of a group, so they
	// need every core's list in place and are filled in a second pass.
	for _, doms := range hier {
		for _, d := range doms {
			if d.local >= 0 {
				d.localMask = groupBalanceMask(hier, d.Groups[d.local], d.Name)
			}
		}
	}
	return hier
}

// groupBalanceMask restricts designation candidates to the cores whose own
// per-core view of this domain level has exactly this local group — the
// kernel's group_balance_mask. With overlapping NUMA groups, a core of
// group G that builds a different local group from its own perspective
// would balance a different instance; counting it here would leave G's
// instance permanently unbalanced.
func groupBalanceMask(hier [][]*Domain, g CPUSet, levelName string) CPUSet {
	var mask CPUSet
	g.ForEach(func(id topology.CoreID) {
		for _, od := range hier[id] {
			if od.Name != levelName {
				continue
			}
			if ogi := od.local; ogi >= 0 && od.Groups[ogi].Equal(g) {
				mask.Set(id)
			}
			return
		}
	})
	if mask.Empty() {
		return g
	}
	return mask
}

// buildDomains constructs the bottom-up domain list of one online core.
func buildDomains(topo *topology.Topology, k domainKey, cpu topology.CoreID) []*Domain {
	var domains []*Domain
	level := 0
	interval := k.interval
	online := k.online

	// SMT level: the pair of hardware siblings, groups = single cores.
	if sib, ok := topo.SMTSibling(cpu); ok {
		span := NewCPUSet(cpu).Or(NewCPUSet(sib)).And(online)
		if span.Count() > 1 {
			d := &Domain{Level: level, Name: "SMT", Span: span, Interval: interval}
			span.ForEach(func(c topology.CoreID) {
				d.Groups = append(d.Groups, NewCPUSet(c))
			})
			domains = append(domains, d)
			level++
			interval *= 2
		}
	}

	// NODE level: all cores of the NUMA node, groups = SMT pairs (or
	// single cores without SMT).
	node := topo.NodeOf(cpu)
	nodeSpan := NewCPUSet(topo.CoresOfNode(node)...).And(online)
	if nodeSpan.Count() > 1 {
		d := &Domain{Level: level, Name: "NODE", Span: nodeSpan, Interval: interval}
		seen := CPUSet{}
		nodeSpan.ForEach(func(c topology.CoreID) {
			if seen.Has(c) {
				return
			}
			g := NewCPUSet(c)
			if sib, ok := topo.SMTSibling(c); ok && nodeSpan.Has(sib) {
				g.Set(sib)
			}
			g.ForEach(func(cc topology.CoreID) { seen.Set(cc) })
			d.Groups = append(d.Groups, g)
		})
		if len(d.Groups) > 1 {
			domains = append(domains, d)
			level++
			interval *= 2
		}
	}

	if !k.includeNUMA || topo.NumNodes() == 1 {
		for _, d := range domains {
			d.local = d.localGroup(cpu)
		}
		return domains
	}

	// NUMA levels: one per hop distance h = 1..diameter. The span is the
	// set of cores within h hops of this core's node; the groups are the
	// (h-1)-hop neighborhoods of the span's nodes — which overlap for
	// h >= 2, making the construction perspective matter (§3.2).
	for h := 1; h <= topo.MaxHops(); h++ {
		span := NewCPUSet(topo.CoresWithin(node, h)...).And(online)
		// Skip degenerate levels that add no cores beyond the level
		// below (or beyond the lone cpu itself, when hotplug removed
		// every lower-level sibling).
		prevCount := 1
		if len(domains) > 0 {
			prevCount = domains[len(domains)-1].Span.Count()
		}
		if span.Count() <= prevCount {
			continue
		}
		d := &Domain{
			Level:    level,
			Name:     fmt.Sprintf("NUMA-%d", h),
			Span:     span,
			Interval: interval,
		}
		d.Groups = buildNUMAGroups(topo, span, node, h, k.gcFixed)
		domains = append(domains, d)
		level++
		interval *= 2
	}
	for _, d := range domains {
		d.local = d.localGroup(cpu)
	}
	return domains
}

// buildNUMAGroups builds the overlapping scheduling groups of a NUMA-level
// domain. Each group is the (h-1)-hop neighborhood of some uncovered node,
// clipped to the domain span; nodes are taken in ascending order starting
// from the perspective node.
//
// Buggy construction (fix disabled) starts from the first core of the
// span — Core 0's node at the machine level — for every core, so "the
// groups are constructed from the perspective of a specific core (Core 0)"
// and two-hop-apart nodes (1 and 2 on our machine) appear together in
// every group. Fixed construction starts from the balancing core's own
// node.
func buildNUMAGroups(topo *topology.Topology, span CPUSet, selfNode topology.NodeID, h int, gcFixed bool) []CPUSet {
	// Nodes present in the span, ascending.
	var nodes []topology.NodeID
	seen := map[topology.NodeID]bool{}
	span.ForEach(func(c topology.CoreID) {
		n := topo.NodeOf(c)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	})

	start := 0
	if gcFixed {
		for i, n := range nodes {
			if n == selfNode {
				start = i
				break
			}
		}
	} else {
		// Perspective of the first core of the span (lowest node id):
		// nodes[] is ascending so start stays 0.
		start = 0
	}

	var groups []CPUSet
	covered := map[topology.NodeID]bool{}
	for i := 0; i < len(nodes); i++ {
		n := nodes[(start+i)%len(nodes)]
		if covered[n] {
			continue
		}
		g := NewCPUSet(topo.CoresWithin(n, h-1)...).And(span)
		if g.Empty() {
			continue
		}
		for _, gn := range topo.NodesWithin(n, h-1) {
			if seen[gn] {
				covered[gn] = true
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// Domains returns cpu's current domain hierarchy, bottom-up. The slice is
// shared; callers must not modify it.
func (s *Scheduler) Domains(cpu topology.CoreID) []*Domain {
	return s.cpus[cpu].domains
}

// DescribeDomains renders a core's hierarchy — the Figure 1 printout.
func (s *Scheduler) DescribeDomains(cpu topology.CoreID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduling domains of cpu %d (machine %s):\n", cpu, s.topo.Name())
	for _, d := range s.cpus[cpu].domains {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

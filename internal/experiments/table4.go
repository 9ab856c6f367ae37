package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/topology"
)

// Table4Row summarizes one bug, as in the paper's Table 4.
type Table4Row struct {
	Name          string
	Description   string
	KernelVersion string
	Impacted      string
	MaxImpact     string
}

// Table4 reproduces the paper's Table 4 by taking the maximum measured
// impact of each bug from this reproduction's own experiments: Tables 1,
// 3 and the §3.1 lu+4R row from a paper campaign, Table 2's rows for
// Overload-on-Wakeup.
func Table4(c *campaign.Campaign, t2 []Table2Row) []Table4Row {
	oow := 0.0
	for _, r := range t2 {
		if r.Config == "Overload-on-Wakeup" && r.Q18Pct < oow {
			oow = r.Q18Pct
		}
	}
	return []Table4Row{
		{
			Name: "Group Imbalance",
			Description: "When launching multiple applications with different " +
				"thread counts, some CPUs are idle while other CPUs are overloaded.",
			KernelVersion: "2.6.38+",
			Impacted:      "All",
			MaxImpact:     fmt.Sprintf("%.0fx", LuR(c).Max()),
		},
		{
			Name:          "Scheduling Group Construction",
			Description:   "No load balancing between nodes that are 2-hops apart.",
			KernelVersion: "3.9+",
			Impacted:      "All",
			MaxImpact:     fmt.Sprintf("%.0fx", Table1(c).Max()),
		},
		{
			Name:          "Overload-on-Wakeup",
			Description:   "Threads wake up on overloaded cores while some other cores are idle.",
			KernelVersion: "2.6.32+",
			Impacted:      "Applications that sleep or wait",
			MaxImpact:     fmt.Sprintf("%.0f%%", -oow),
		},
		{
			Name:          "Missing Scheduling Domains",
			Description:   "The load is not balanced between NUMA nodes.",
			KernelVersion: "3.19+",
			Impacted:      "All",
			MaxImpact:     fmt.Sprintf("%.0fx", Table3(c).Max()),
		},
	}
}

// FormatTable4 renders the summary table.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: bugs found in the scheduler using our tools\n")
	b.WriteString("(maximum impact measured by this reproduction)\n\n")
	fmt.Fprintf(&b, "%-30s %-9s %-32s %s\n", "Name", "Kernels", "Impacted applications", "Max impact")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-9s %-32s %s\n", r.Name, r.KernelVersion, r.Impacted, r.MaxImpact)
		fmt.Fprintf(&b, "    %s\n", r.Description)
	}
	return b.String()
}

// Table5 renders the hardware description (paper Table 5).
func Table5() string {
	var b strings.Builder
	b.WriteString("Table 5: hardware of our AMD Bulldozer machine\n\n")
	b.WriteString(topology.Bulldozer8().String())
	return b.String()
}

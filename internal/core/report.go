package core

import (
	"net/netip"
	"sort"
	"time"

	"remotepeering/internal/geo"
	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
)

// Analyzed returns the interfaces that survived all six filters.
func (r *Report) Analyzed() []InterfaceResult {
	out := make([]InterfaceResult, 0, len(r.Interfaces))
	for _, i := range r.Interfaces {
		if i.Discard == FilterNone {
			out = append(out, i)
		}
	}
	return out
}

// Table1Row is the per-IXP summary the paper prints in Table 1.
type Table1Row struct {
	IXPIndex int
	Acronym  string
	Probed   int
	Analyzed int
	Remote   int
}

// Table1 returns per-IXP probe and analysis counts, in IXP order.
func (r *Report) Table1() []Table1Row {
	byIXP := map[int]*Table1Row{}
	var order []int
	for _, i := range r.Interfaces {
		row, ok := byIXP[i.IXPIndex]
		if !ok {
			row = &Table1Row{IXPIndex: i.IXPIndex, Acronym: i.Acronym}
			byIXP[i.IXPIndex] = row
			order = append(order, i.IXPIndex)
		}
		row.Probed++
		if i.Discard == FilterNone {
			row.Analyzed++
			if i.Remote {
				row.Remote++
			}
		}
	}
	sort.Ints(order)
	rows := make([]Table1Row, 0, len(order))
	for _, idx := range order {
		rows = append(rows, *byIXP[idx])
	}
	return rows
}

// Figure2CDF returns the cumulative distribution of the analyzed
// interfaces' minimum RTTs in milliseconds — the paper's Figure 2.
func (r *Report) Figure2CDF() (*stats.CDF, error) {
	var ms []float64
	for _, i := range r.Analyzed() {
		ms = append(ms, float64(i.MinRTT)/float64(time.Millisecond))
	}
	return stats.NewCDF(ms)
}

// Figure3Row is one IXP's classification into the four minimum-RTT ranges.
type Figure3Row struct {
	IXPIndex int
	Acronym  string
	// Counts indexes by geo.DistanceClass: local, intercity,
	// intercountry, intercontinental.
	Counts [4]int
}

// Figure3 returns the per-IXP interface classification of Figure 3,
// ordered by analyzed interface count (descending), like the paper's
// x-axis.
func (r *Report) Figure3() []Figure3Row {
	byIXP := map[int]*Figure3Row{}
	for _, i := range r.Interfaces {
		if i.Discard != FilterNone {
			continue
		}
		row, ok := byIXP[i.IXPIndex]
		if !ok {
			row = &Figure3Row{IXPIndex: i.IXPIndex, Acronym: i.Acronym}
			byIXP[i.IXPIndex] = row
		}
		row.Counts[int(i.Class)]++
	}
	rows := make([]Figure3Row, 0, len(byIXP))
	for _, row := range byIXP {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		ta := rows[a].Counts[0] + rows[a].Counts[1] + rows[a].Counts[2] + rows[a].Counts[3]
		tb := rows[b].Counts[0] + rows[b].Counts[1] + rows[b].Counts[2] + rows[b].Counts[3]
		if ta != tb {
			return ta > tb
		}
		return rows[a].Acronym < rows[b].Acronym
	})
	return rows
}

// IXPsWithRemotePeering counts the IXPs where at least one analyzed
// interface is classified remote (the paper: more than 90% of the studied
// IXPs).
func (r *Report) IXPsWithRemotePeering() (withRemote, total int) {
	remote := map[int]bool{}
	all := map[int]bool{}
	for _, i := range r.Analyzed() {
		all[i.IXPIndex] = true
		if i.Remote {
			remote[i.IXPIndex] = true
		}
	}
	return len(remote), len(all)
}

// IXPsWithIntercontinental counts IXPs hosting at least one analyzed
// interface in the ≥50 ms band (the paper: a majority of the studied
// IXPs).
func (r *Report) IXPsWithIntercontinental() int {
	ixps := map[int]bool{}
	for _, i := range r.Analyzed() {
		if i.Class == geo.ClassIntercontinental {
			ixps[i.IXPIndex] = true
		}
	}
	return len(ixps)
}

// NetworkSummary aggregates the analyzed, identified interfaces of one
// network across the studied IXPs (the unit of Figure 4).
type NetworkSummary struct {
	ASN topo.ASN
	// IXPCount is the number of studied IXPs where the network has
	// analyzed interfaces.
	IXPCount int
	// Interfaces holds the network's analyzed interface results.
	Interfaces []InterfaceResult
	// Remote is true when at least one interface is classified remote.
	Remote bool
}

// Networks groups analyzed interfaces by identified network.
func (r *Report) Networks() []NetworkSummary {
	byASN := map[topo.ASN]*NetworkSummary{}
	ixpSets := map[topo.ASN]map[int]bool{}
	for _, i := range r.Analyzed() {
		if !i.Identified {
			continue
		}
		n, ok := byASN[i.ASN]
		if !ok {
			n = &NetworkSummary{ASN: i.ASN}
			byASN[i.ASN] = n
			ixpSets[i.ASN] = map[int]bool{}
		}
		n.Interfaces = append(n.Interfaces, i)
		ixpSets[i.ASN][i.IXPIndex] = true
		if i.Remote {
			n.Remote = true
		}
	}
	out := make([]NetworkSummary, 0, len(byASN))
	for asn, n := range byASN {
		n.IXPCount = len(ixpSets[asn])
		out = append(out, *n)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ASN < out[b].ASN })
	return out
}

// Figure4a returns the IXP-count distributions of Figure 4a: for each IXP
// count, the number of identified networks with that count, and the number
// of remotely peering networks with that count.
func (r *Report) Figure4a() (all, remote map[int]int) {
	all = map[int]int{}
	remote = map[int]int{}
	for _, n := range r.Networks() {
		all[n.IXPCount]++
		if n.Remote {
			remote[n.IXPCount]++
		}
	}
	return all, remote
}

// Figure4b returns, for each IXP count, the fractions of the remotely
// peering networks' analyzed interfaces falling into the four minimum-RTT
// classes (Figure 4b).
func (r *Report) Figure4b() map[int][4]float64 {
	counts := map[int]*[4]int{}
	for _, n := range r.Networks() {
		if !n.Remote {
			continue
		}
		c, ok := counts[n.IXPCount]
		if !ok {
			c = &[4]int{}
			counts[n.IXPCount] = c
		}
		for _, i := range n.Interfaces {
			c[int(i.Class)]++
		}
	}
	out := map[int][4]float64{}
	for k, c := range counts {
		total := c[0] + c[1] + c[2] + c[3]
		if total == 0 {
			continue
		}
		var fr [4]float64
		for j := 0; j < 4; j++ {
			fr[j] = float64(c[j]) / float64(total)
		}
		out[k] = fr
	}
	return out
}

// Validation compares the detector's verdicts against ground truth (which
// the simulator knows and the paper could only sample via TorIX, E4A, and
// Invitel). truth reports whether the interface is genuinely a remote
// peering port.
type Validation struct {
	TruePositives  int
	FalsePositives int
	TrueNegatives  int
	FalseNegatives int
}

// Precision returns TP/(TP+FP), or 1 when nothing was flagged.
func (v Validation) Precision() float64 {
	if v.TruePositives+v.FalsePositives == 0 {
		return 1
	}
	return float64(v.TruePositives) / float64(v.TruePositives+v.FalsePositives)
}

// Recall returns TP/(TP+FN), or 1 when nothing was remote.
func (v Validation) Recall() float64 {
	if v.TruePositives+v.FalseNegatives == 0 {
		return 1
	}
	return float64(v.TruePositives) / float64(v.TruePositives+v.FalseNegatives)
}

// Validate scores the analyzed interfaces against ground truth.
func (r *Report) Validate(truth func(ixpIndex int, ip netip.Addr) bool) Validation {
	var v Validation
	for _, i := range r.Interfaces {
		if i.Discard != FilterNone {
			continue
		}
		actual := truth(i.IXPIndex, i.IP)
		switch {
		case i.Remote && actual:
			v.TruePositives++
		case i.Remote && !actual:
			v.FalsePositives++
		case !i.Remote && actual:
			v.FalseNegatives++
		default:
			v.TrueNegatives++
		}
	}
	return v
}

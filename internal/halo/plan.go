package halo

import (
	"slices"

	"tofumd/internal/topo"
	"tofumd/internal/vec"
)

// Plan is the communication decision of a halo exchange, shared by every
// back end: which directed links exist, in what order each rank issues
// them, and (Assign) which thread and TNI each of a link's two sending sides
// uses. The MD engine runs it with packed bytes, core.Modeled with sizes.
type Plan struct {
	// Links is the directed link graph, in BuildLinkSpecs order.
	Links []LinkSpec
	// Send[r] and Recv[r] index the links rank r sends and receives on, in
	// SpecLess order: forward operations issue rank r's Send links in that
	// order, reverse operations (the receiver sending back) its Recv links.
	Send, Recv [][]int32
	// Rounds are the bulk-synchronous rounds of one operation; reverse
	// operations run them backwards. Every round holds as many links.
	Rounds []RoundKey
	m      *topo.RankMap
}

// NewPlan builds the plan of a pattern over the rank map; shells and
// sendDirs are as for BuildLinkSpecs.
func NewPlan(m *topo.RankMap, p Pattern, shells int, sendDirs []vec.I3) *Plan {
	pl := &Plan{Links: BuildLinkSpecs(m, p, shells, sendDirs), Rounds: Rounds(p, shells), m: m}
	pl.Send, pl.Recv = pl.byRank(false), pl.byRank(true)
	return pl
}

// byRank groups the link indices by sending (or, with dst, receiving) rank,
// each group in SpecLess order.
func (p *Plan) byRank(dst bool) [][]int32 {
	// Each direction maps the ranks onto themselves, so every rank sends
	// and receives the same number of links.
	per := len(p.Links) / p.m.Ranks()
	flat := make([]int32, len(p.Links))
	out := make([][]int32, p.m.Ranks())
	for r := range out {
		out[r] = flat[r*per : r*per : (r+1)*per]
	}
	for i, l := range p.Links {
		r := l.Src
		if dst {
			r = l.Dst
		}
		out[r] = append(out[r], int32(i))
	}
	for _, group := range out {
		slices.SortStableFunc(group, func(a, b int32) int { return specCompare(&p.Links[a], &p.Links[b]) })
	}
	return out
}

// Res is the thread/TNI assignment of one link's sending side.
type Res struct {
	Thread, TNI int
}

// Balance holds the inputs of the §3.3 thread balance: a link costs its
// estimated border payload, int(MessageVolume(dir, Side, Cutoff)*Density) *
// AtomBytes, over Bandwidth, plus its hops times HopLatency.
type Balance struct {
	Side, Cutoff, Density float64
	AtomBytes             int
	Bandwidth, HopLatency float64
}

// Assign maps both sending sides of every link onto a comm thread and a TNI
// out of surviving: fwd[i] is the side Links[i].Src sends on, rev[i] the
// side Links[i].Dst sends back on. A rank's send side and receive side are
// separate batches: per-rank-slot binds a batch to the slot's TNI,
// spray-all round-robins it over the TNIs in issue order, and thread-bound
// balances it over threads comm threads (the only policy that reads b).
func (p *Plan) Assign(policy TNIPolicy, surviving []int, threads int, b Balance) (fwd, rev []Res) {
	fwd, rev = make([]Res, len(p.Links)), make([]Res, len(p.Links))
	var specs []Link
	var hops []int32
	batch := func(links []int32, out []Res, slot int) {
		switch policy {
		case TNIPerRankSlot:
			for _, i := range links {
				out[i] = Res{TNI: SurvivorTNI(slot, surviving)}
			}
		case TNISprayAll:
			for j, i := range links {
				out[i] = Res{TNI: SurvivorTNI(j, surviving)}
			}
		default:
			if hops == nil { // one hop count serves both sides of a link
				hops = make([]int32, len(p.Links))
				for i, l := range p.Links {
					hops[i] = int32(p.m.Hops(l.Src, l.Dst))
				}
			}
			specs = specs[:0]
			for _, i := range links {
				l := p.Links[i]
				vol := MessageVolume(l.Dir, b.Side, b.Cutoff)
				specs = append(specs, Link{Dir: l.Dir, Bytes: int(vol*b.Density) * b.AtomBytes, Hops: int(hops[i])})
			}
			for j, th := range BalanceThreads(specs, threads, b.Bandwidth, b.HopLatency) {
				out[links[j]] = Res{Thread: th, TNI: SurvivorTNI(th, surviving)}
			}
		}
	}
	for r := range p.Send {
		_, slot := p.m.NodeOf(r)
		batch(p.Send[r], fwd, slot)
		batch(p.Recv[r], rev, slot)
	}
	return fwd, rev
}

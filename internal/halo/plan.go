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
	// sendFlat and recvFlat back Send and Recv.
	sendFlat, recvFlat []int32
}

// NewPlan builds the plan of a pattern over the rank map; shells and
// sendDirs are as for BuildLinkSpecs.
func NewPlan(m *topo.RankMap, p Pattern, shells int, sendDirs []vec.I3) *Plan {
	pl := &Plan{}
	pl.Rebuild(m, p, shells, sendDirs)
	return pl
}

// Rebuild makes p the plan NewPlan(m, pat, shells, sendDirs) returns,
// reusing p's storage: a plan rebuilt for a rank map no larger than an
// earlier one allocates only the issue-order scratch, which is garbage
// when Rebuild returns, so a kept plan holds nothing but the plan. Slices
// read from p before the call are overwritten.
func (p *Plan) Rebuild(m *topo.RankMap, pat Pattern, shells int, sendDirs []vec.I3) {
	p.m = m
	p.Links = appendLinkSpecs(p.Links[:0], m, pat, shells, sendDirs)
	p.Rounds = appendRounds(p.Rounds[:0], pat, shells)
	order := p.keyOrder()
	p.Send, p.sendFlat = p.byRank(order, p.Send, p.sendFlat, false)
	p.Recv, p.recvFlat = p.byRank(order, p.Recv, p.recvFlat, true)
}

// resized returns s with length n, reusing its backing array when that is
// large enough; the contents are the caller's to write.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keyOrder returns the link indices stably sorted by SpecLess: a counting
// sort on the key's mixed-radix code, whose digits are (Stage3Dim,
// Stage3Iter, Dir.Z, Dir.Y, Dir.X), each offset by its minimum over the
// links, so code order is SpecLess order and equal keys keep index order.
func (p *Plan) keyOrder() []int32 {
	if len(p.Links) == 0 {
		return nil
	}
	digits := func(l *LinkSpec) [5]int {
		return [5]int{l.Stage3Dim, l.Stage3Iter, l.Dir.Z, l.Dir.Y, l.Dir.X}
	}
	lo, hi := digits(&p.Links[0]), digits(&p.Links[0])
	for i := range p.Links {
		for k, d := range digits(&p.Links[i]) {
			lo[k], hi[k] = min(lo[k], d), max(hi[k], d)
		}
	}
	// code(l) = sum over k of (digit_k - lo_k) * w_k, with w_k the product
	// of the radices after k.
	var w [5]int
	size, base := 1, 0
	for k := 4; k >= 0; k-- {
		w[k] = size
		size *= hi[k] - lo[k] + 1
		base += lo[k] * w[k]
	}
	code := func(l *LinkSpec) int {
		return l.Stage3Dim*w[0] + l.Stage3Iter*w[1] + l.Dir.Z*w[2] + l.Dir.Y*w[3] + l.Dir.X*w[4] - base
	}
	start := make([]int32, size+1)
	for i := range p.Links {
		start[code(&p.Links[i])+1]++
	}
	for c := 0; c < size; c++ {
		start[c+1] += start[c]
	}
	order := make([]int32, len(p.Links))
	for i := range p.Links {
		c := code(&p.Links[i])
		order[start[c]] = int32(i)
		start[c]++
	}
	return order
}

// byRank groups the link indices by sending (or, with dst, receiving) rank
// into out, backed by flat, and returns both, grown as needed. It
// distributes order, the links in SpecLess order, into the groups, so each
// group is in SpecLess order with equal keys in index order: the result of
// a stable sort of each group, without one.
func (p *Plan) byRank(order []int32, out [][]int32, flat []int32, dst bool) ([][]int32, []int32) {
	rank := func(i int32) int {
		if dst {
			return p.Links[i].Dst
		}
		return p.Links[i].Src
	}
	off := make([]int32, p.m.Ranks()+1)
	for _, i := range order {
		off[rank(i)+1]++
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	flat = resized(flat, len(order))
	out = resized(out, p.m.Ranks())
	for r := range out {
		out[r] = flat[off[r]:off[r]:off[r+1]]
	}
	for _, i := range order {
		r := rank(i)
		out[r] = append(out[r], i)
	}
	return out, flat
}

// Res is the thread/TNI assignment of one link's sending side. It is two
// int16 (4 bytes) because core.Modeled keeps two per plan link, 0.3 MB on a
// 3,072-rank P2P plan, inside the live heap its calls are held to.
type Res struct {
	Thread, TNI int16
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
//
// A thread-bound batch's balance depends only on its (Bytes, Hops)
// sequence, so Assign runs BalanceThreads once per distinct sequence: on a
// torus most ranks share one.
func (p *Plan) Assign(policy TNIPolicy, surviving []int, threads int, b Balance) (fwd, rev []Res) {
	return p.AssignInto(nil, nil, policy, surviving, threads, b)
}

// AssignInto is Assign writing into fwd and rev, which it grows to
// len(p.Links) where they are shorter and returns; it writes every entry,
// so storage kept from an earlier plan carries nothing over.
func (p *Plan) AssignInto(fwd, rev []Res, policy TNIPolicy, surviving []int, threads int, b Balance) ([]Res, []Res) {
	fwd, rev = resized(fwd, len(p.Links)), resized(rev, len(p.Links))
	nodes := newNodeTables(p.m)
	var memo *balanceMemo
	if policy == TNIThreadBound {
		memo = newBalanceMemo(threads, b)
	}
	var specs []Link
	batch := func(links []int32, out []Res, slot int) {
		switch policy {
		case TNIPerRankSlot:
			for _, i := range links {
				out[i] = Res{TNI: int16(SurvivorTNI(slot, surviving))}
			}
		case TNISprayAll:
			for j, i := range links {
				out[i] = Res{TNI: int16(SurvivorTNI(j, surviving))}
			}
		default:
			specs = specs[:0]
			for _, i := range links {
				l := &p.Links[i]
				vol := MessageVolume(l.Dir, b.Side, b.Cutoff)
				specs = append(specs, Link{Dir: l.Dir, Bytes: int(vol*b.Density) * b.AtomBytes, Hops: nodes.hops(l.Src, l.Dst)})
			}
			for j, th := range memo.balance(specs) {
				out[links[j]] = Res{Thread: int16(th), TNI: int16(SurvivorTNI(th, surviving))}
			}
		}
	}
	for r := range p.Send {
		slot := int(nodes.slot[r])
		batch(p.Send[r], fwd, slot)
		batch(p.Recv[r], rev, slot)
	}
	return fwd, rev
}

// nodeTables hold a rank map's placement for one Assign call: each rank's
// node and slot, and each node's torus coordinate, so a link's hop count is
// a few lookups instead of RankMap arithmetic.
type nodeTables struct {
	hopTab     topo.HopTable
	node, slot []int32
	coord      []vec.I3
}

func newNodeTables(m *topo.RankMap) *nodeTables {
	t := &nodeTables{hopTab: topo.NewHopTable(m.Torus), node: make([]int32, m.Ranks()), slot: make([]int32, m.Ranks()),
		coord: make([]vec.I3, m.Torus.Nodes())}
	for r := range t.node {
		node, slot := m.NodeOf(r)
		t.node[r], t.slot[r] = int32(node), int32(slot)
	}
	for n := range t.coord {
		t.coord[n] = m.Torus.CoordOf(n)
	}
	return t
}

// hops is RankMap.Hops(a, b) read off the tables.
func (t *nodeTables) hops(a, b int) int {
	na, nb := t.node[a], t.node[b]
	if na == nb {
		return 0
	}
	return t.hopTab.Hops(t.coord[na], t.coord[nb])
}

// balanceMemo runs BalanceThreads once per distinct batch signature, the
// exact (Bytes, Hops) sequence BalanceThreads reads. Signatures are found
// by hash and confirmed by full equality.
type balanceMemo struct {
	threads               int
	bandwidth, hopLatency float64
	// links holds every signature's links back to back.
	links []Link
	sigs  []memoSig
	// byHash lists the signatures with each hash.
	byHash map[uint64][]int32
}

type memoSig struct {
	start, end int32
	assign     []int
}

func newBalanceMemo(threads int, b Balance) *balanceMemo {
	return &balanceMemo{threads: threads, bandwidth: b.Bandwidth, hopLatency: b.HopLatency, byHash: map[uint64][]int32{}}
}

// balance returns BalanceThreads of the batch, computing it only for a
// signature not seen before. The result is shared: callers only read it.
func (m *balanceMemo) balance(batch []Link) []int {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, l := range batch {
		h = (h ^ uint64(l.Bytes)) * 1099511628211
		h = (h ^ uint64(l.Hops)) * 1099511628211
	}
	for _, k := range m.byHash[h] {
		s := &m.sigs[k]
		if slices.EqualFunc(m.links[s.start:s.end], batch, func(a, b Link) bool { return a.Bytes == b.Bytes && a.Hops == b.Hops }) {
			return s.assign
		}
	}
	start := int32(len(m.links))
	m.links = append(m.links, batch...)
	m.sigs = append(m.sigs, memoSig{start: start, end: int32(len(m.links)),
		assign: BalanceThreads(batch, m.threads, m.bandwidth, m.hopLatency)})
	m.byHash[h] = append(m.byHash[h], int32(len(m.sigs)-1))
	return m.sigs[len(m.sigs)-1].assign
}

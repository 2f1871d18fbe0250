package synthpop

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/disease"
)

// Context is the setting in which a contact happens. The paper annotates
// each edge endpoint with its own context (a shopper meets a grocer who is
// working).
type Context uint8

// Contact contexts from the paper's network schema.
const (
	CtxHome Context = iota
	CtxWork
	CtxShopping
	CtxOther
	CtxSchool
	CtxCollege
	CtxReligion
	NumContexts
)

var contextNames = [NumContexts]string{
	"home", "work", "shopping", "other", "school", "college", "religion",
}

// String returns the context's display name.
func (c Context) String() string {
	if int(c) < len(contextNames) {
		return contextNames[c]
	}
	return fmt.Sprintf("Context(%d)", uint8(c))
}

// ParseContext maps a context name to its value.
func ParseContext(s string) (Context, error) {
	for i, n := range contextNames {
		if n == s {
			return Context(i), nil
		}
	}
	return 0, fmt.Errorf("synthpop: unknown context %q", s)
}

// HalfEdge is one direction of an undirected contact edge as a record: the
// 16-byte unit of the binary file format, and what CSR.At assembles from the
// columns. Each undirected edge appears exactly twice in a Network, once in
// each endpoint's row, with the contexts swapped.
type HalfEdge struct {
	Neighbor    int32   // the other endpoint's person ID
	SrcContext  Context // context of the owning node
	DstContext  Context // context of the neighbor
	StartMin    uint16  // start time, minutes into the day
	DurationMin uint16  // duration in minutes
	Weight      float32 // contact weight w_e
}

// Network is the contact network of one region: person records (IDs are
// dense 0..n-1 within a region's network) plus the context-labelled contacts,
// held once, in the column form the simulator runs on. A Network comes from
// Builder.Build or ReadNetworkBinary, complete when it is handed out.
type Network struct {
	Region     string // postal code
	Persons    []Person
	households []Household

	csr CSR

	byCountyOnce sync.Once
	byCounty     map[int32][]int32

	countiesOnce sync.Once
	counties     *CountyIndex

	ageBandsOnce sync.Once
	ageBands     []disease.AgeGroup
}

// CountyIndex numbers a network's counties densely: a county's ordinal is its
// position in FIPS. Per-simulation consumers (the county aggregator, the
// seeding-county choice) index flat tables by ordinal where they used to
// walk every person through a map.
type CountyIndex struct {
	FIPS     []int32 // county codes, ascending
	Size     []int32 // persons per county, by ordinal
	OfPerson []int32 // ordinal of each person's county
}

// Counties returns the network's county index, built once and shared — do
// not mutate.
func (n *Network) Counties() *CountyIndex {
	n.countiesOnce.Do(func() {
		byCounty := n.PersonsByCounty()
		ix := &CountyIndex{OfPerson: make([]int32, len(n.Persons))}
		for fips := range byCounty {
			ix.FIPS = append(ix.FIPS, fips)
		}
		slices.Sort(ix.FIPS)
		ordinal := make(map[int32]int32, len(ix.FIPS))
		for ord, fips := range ix.FIPS {
			ordinal[fips] = int32(ord)
			ix.Size = append(ix.Size, int32(len(byCounty[fips])))
		}
		for i := range n.Persons {
			ix.OfPerson[i] = ordinal[n.Persons[i].CountyFIPS]
		}
		n.counties = ix
	})
	return n.counties
}

// Largest returns the FIPS code of the most populous county, the lowest
// code among counties that tie (0 when there are none).
func (ix *CountyIndex) Largest() int32 {
	var fips, best int32 = 0, -1
	for ord, size := range ix.Size {
		if size > best {
			fips, best = ix.FIPS[ord], size
		}
	}
	return fips
}

// AgeBands returns each person's Table III age band, one byte per person,
// built once and shared — do not mutate. The simulator samples every
// progression by age band; this column spares it a read of the whole person
// record per transition.
func (n *Network) AgeBands() []disease.AgeGroup {
	n.ageBandsOnce.Do(func() {
		n.ageBands = make([]disease.AgeGroup, len(n.Persons))
		for i := range n.Persons {
			n.ageBands[i] = n.Persons[i].AgeGroup()
		}
	})
	return n.ageBands
}

// PersonsByCounty returns the person IDs of every county, each list in
// ascending ID order (the order the seeding machinery draws from). The
// index is built once and shared: replicate fan-outs construct thousands of
// sims over one network, and rebuilding the map per sim was a measurable
// slice of construction time. The returned map and slices are shared — do
// not mutate.
func (n *Network) PersonsByCounty() map[int32][]int32 {
	n.byCountyOnce.Do(func() {
		m := make(map[int32][]int32)
		for i := range n.Persons {
			p := &n.Persons[i]
			m[p.CountyFIPS] = append(m[p.CountyFIPS], p.ID)
		}
		n.byCounty = m
	})
	return n.byCounty
}

// CSR is the contact structure in compressed-sparse-row form: per-node
// offsets into contiguous half-edge columns, each row in the order its
// contacts were added (Builder). The flat layout removes a pointer
// dereference per node and keeps the edge scan sequential in memory — the
// property Kitson et al. (arXiv:2401.08124) identify as what lets per-tick
// kernels scale to realistic networks. The per-edge fields are split
// structure-of-arrays style because the transmission kernel's common path
// (neighbor not infectious) needs only the 4-byte neighbor ID: scanning Nbr
// alone moves under half the memory an array-of-structs row would. The
// columns are shared — do not mutate.
type CSR struct {
	Offsets []int64 // len NumNodes()+1
	// Nbr, Ctx and Code are the half-edge columns, parallel over all
	// half-edges in row order: 9 bytes per half-edge. Ctx packs the source
	// context in bits 0-2 and the destination context in bits 3-5
	// (NumContexts = 7 fits in 3 bits). Code numbers the half-edge's (start,
	// duration, weight) record in the network's table of distinct records.
	// A generated network holds about 1 300 of them at any size, so the
	// tables a code indexes stay in the L1 cache.
	Nbr  []int32
	Ctx  []uint8
	Code []uint32
	// TW and Q are indexed by code. TW is the static part of the
	// per-contact propensity — T·w_e of eq. (1), the contact duration as a
	// fraction of a day times the contact weight — which the transmission
	// scan prices an infectious contact with. Q is its fixed-point image
	// QuantTW(T·w), which is all the simulator's neighbor updates add and
	// remove; a record whose T·w is outside QuantTW's range has Q = -1, and
	// the range check refuses every row that uses it.
	TW []float64
	Q  []int32

	// recs is the record table Code indexes. index finds a record's code
	// while the columns are filled; seal drops it.
	recs  []record
	index *recordIndex

	// rangeErr is set when some row leaves the range QuantTW sums can hold.
	rangeErr error
}

// record is the part of a half-edge that its code stands for.
type record struct {
	start, dur uint16 // minutes
	weight     float32
}

// key returns r's bits as one word: records with equal keys share a code,
// so a +0 and a −0 weight are two records, as they are two bit patterns in
// the file formats.
func (r record) key() uint64 {
	return uint64(r.start) | uint64(r.dur)<<16 | uint64(math.Float32bits(r.weight))<<32
}

// recordIndex finds a record's code while the columns are filled. Contacts
// come in runs that share a record (a household, a class), so the previous
// record is tried first, then a direct-mapped cache that fits in L1, and the
// map only when both miss.
type recordIndex struct {
	last  cachedCode
	cache [1 << recordCacheBits]cachedCode
	codes map[uint64]uint32
	err   error
}

// cachedCode is a record key and its code plus one; code 0 is an empty slot.
type cachedCode struct {
	key  uint64
	code uint32
}

const recordCacheBits = 10

// maxRecords bounds a network's distinct records, since a code is 32 bits.
// It is a variable so that a test can reach the refusal.
var maxRecords uint64 = 1 << 32

// intern returns record r's code, adding r to the table when it is new. A
// record past maxRecords gets code 0 and an error that seal returns.
func (c *CSR) intern(r record) uint32 {
	ix, key := c.index, r.key()
	if ix.last.code != 0 && ix.last.key == key {
		return ix.last.code - 1
	}
	slot := &ix.cache[(key*0x9E3779B97F4A7C15)>>(64-recordCacheBits)]
	if slot.code == 0 || slot.key != key {
		code, ok := ix.codes[key]
		if !ok {
			if uint64(len(c.recs)) >= maxRecords {
				ix.err = fmt.Errorf("synthpop: more than %d distinct contact records", maxRecords)
				return 0
			}
			code = uint32(len(c.recs))
			c.recs = append(c.recs, r)
			ix.codes[key] = code
		}
		*slot = cachedCode{key, code + 1}
	}
	ix.last = *slot
	return slot.code - 1
}

// The simulator bounds a susceptible node's total propensity by the sum of
// T·w over its currently infectious contacts. It keeps that sum in integer
// fixed point, so that additions and removals commute across shards and
// never drift: a contact contributes QuantTW(T·w) = ⌊T·w·2²⁰⌋+1, rounded up
// so the integer sum never falls below the real one. Beside each sum sits a
// contact count; together they fill one 64-bit word per node, which sets the
// limits below. They are far beyond any real contact network (a T·w of 1 is
// a full day at unit weight) and exist so that a corrupt or adversarial file
// is refused instead of silently wrapping a counter.
const (
	// TWQuantBits is the number of fractional bits of QuantTW.
	TWQuantBits = 20
	// MaxQuantTW bounds one contact's QuantTW: T·w < 2048.
	MaxQuantTW = 1<<31 - 1
	// MaxRowQuantTW bounds the sum of QuantTW over one node's contacts:
	// ΣT·w < 2²⁰.
	MaxRowQuantTW = 1<<40 - 1
	// MaxDegree bounds a node's number of contacts.
	MaxDegree = 1<<24 - 1
)

// QuantTW returns the fixed-point image of a contact's T·w. The argument
// must be finite, non-negative and below 2048 (checkRow).
func QuantTW(tw float64) int64 { return int64(tw*(1<<TWQuantBits)) + 1 }

// seal completes the columns once Offsets, Nbr, Ctx and Code are filled: it
// drops the record index, derives TW and Q once per record, and runs the
// range check row by row from them. Builder.Build and ReadNetworkBinary, the
// two places a Network is made, both end here, so no network reaches the
// simulator unchecked. The error is a record table that outgrew its codes.
func (c *CSR) seal() error {
	if ix := c.index; ix != nil {
		c.index = nil
		if ix.err != nil {
			return ix.err
		}
	}
	c.recs = slices.Clone(c.recs) // exactly sized
	c.TW, c.Q = make([]float64, len(c.recs)), make([]int32, len(c.recs))
	for r, rec := range c.recs {
		// T·w_e of eq. (1), computed as the reference kernel computes it.
		tw := float64(rec.dur) / 1440 * float64(rec.weight)
		c.TW[r], c.Q[r] = tw, -1
		// A NaN fails the comparison and keeps Q = -1.
		if tw >= 0 && tw*(1<<TWQuantBits) < MaxQuantTW {
			c.Q[r] = int32(QuantTW(tw))
		}
	}
	for i := 0; i+1 < len(c.Offsets) && c.rangeErr == nil; i++ {
		c.rangeErr = c.checkRow(i)
	}
	return nil
}

// checkRow verifies that node i's contacts have a finite, non-negative T·w
// and fit the fixed-point limits above.
func (c *CSR) checkRow(i int) error {
	lo, hi := c.Offsets[i], c.Offsets[i+1]
	if hi-lo > MaxDegree {
		return fmt.Errorf("synthpop: node %d has %d contacts, limit %d", i, hi-lo, MaxDegree)
	}
	sum := int64(0)
	for k := lo; k < hi; k++ {
		code := c.Code[k]
		if c.Q[code] < 0 {
			return fmt.Errorf("synthpop: contact %d→%d has T·w %g outside [0, %d)", i, c.Nbr[k], c.TW[code], (MaxQuantTW+1)>>TWQuantBits)
		}
		sum += int64(c.Q[code])
	}
	if sum > MaxRowQuantTW {
		return fmt.Errorf("synthpop: node %d's contacts sum to T·w %g, limit %d", i, float64(sum)/(1<<TWQuantBits), (MaxRowQuantTW+1)>>TWQuantBits)
	}
	return nil
}

// RangeErr reports whether every row fits the fixed-point limits of QuantTW
// (nil when it does). The check runs once, when the columns are completed.
func (c *CSR) RangeErr() error { return c.rangeErr }

// CtxBits packs a (source, destination) context pair the way CSR.Ctx
// stores it.
func CtxBits(src, dst Context) uint8 { return uint8(src) | uint8(dst)<<3 }

// Neighbors returns the contiguous neighbor-ID block of node i.
func (c *CSR) Neighbors(i int32) []int32 {
	return c.Nbr[c.Offsets[i]:c.Offsets[i+1]]
}

// Degree returns the contact degree of node i.
func (c *CSR) Degree(i int32) int { return int(c.Offsets[i+1] - c.Offsets[i]) }

// At returns half-edge k (an index into the columns) as a record.
func (c *CSR) At(k int64) HalfEdge {
	r := c.recs[c.Code[k]]
	return HalfEdge{
		Neighbor:   c.Nbr[k],
		SrcContext: Context(c.Ctx[k] & 7), DstContext: Context(c.Ctx[k] >> 3),
		StartMin: r.start, DurationMin: r.dur, Weight: r.weight,
	}
}

// set stores record e as half-edge k, the inverse of At. Contexts must be
// below NumContexts: Ctx has three bits for each.
func (c *CSR) set(k int64, e HalfEdge) {
	c.put(k, e.Neighbor, CtxBits(e.SrcContext, e.DstContext), c.intern(record{e.StartMin, e.DurationMin, e.Weight}))
}

// put stores half-edge k from its column values.
func (c *CSR) put(k int64, nbr int32, ctx uint8, code uint32) {
	c.Nbr[k], c.Ctx[k], c.Code[k] = nbr, ctx, code
}

// resize sets the length of the three stored half-edge columns to n, growing
// them as grown does. The first call also starts the record index.
func (c *CSR) resize(n, limit uint64) {
	c.Nbr, c.Ctx, c.Code = grown(c.Nbr, n, limit), grown(c.Ctx, n, limit), grown(c.Code, n, limit)
	if c.index == nil {
		c.index = &recordIndex{codes: make(map[uint64]uint32)}
	}
}

// grown returns s at length n. When it has to reallocate it at least doubles,
// so a slice filled step by step is copied a constant number of times, and it
// never allocates past limit, the final length — the slice ends exactly sized.
func grown[T any](s []T, n, limit uint64) []T {
	if n > uint64(cap(s)) {
		s = append(make([]T, 0, min(max(n, 2*uint64(cap(s))), limit)), s...)
	}
	return s[:n]
}

// CSR returns the network's contact structure (shared; do not mutate).
func (n *Network) CSR() *CSR { return &n.csr }

// NumNodes returns the number of persons.
func (n *Network) NumNodes() int { return len(n.Persons) }

// NumEdges returns the number of undirected edges (half-edge count / 2).
func (n *Network) NumEdges() int { return len(n.csr.Nbr) / 2 }

// Degree returns the contact degree of person i.
func (n *Network) Degree(i int) int { return n.csr.Degree(int32(i)) }

// MeanDegree returns the average degree.
func (n *Network) MeanDegree() float64 {
	if len(n.Persons) == 0 {
		return 0
	}
	return float64(len(n.csr.Nbr)) / float64(len(n.Persons))
}

// Bytes returns the memory the network occupies: the contact columns (9
// bytes per half-edge, 18 per contact), the record table (20 bytes per
// distinct record: the record, its T·w and its Q), the row offsets and the
// person table. A generated network has about 1 300 records; if every
// contact had its own, a half-edge would cost ≈19 bytes. Household records,
// a generator by-product the simulator never reads, and the derived
// per-person indexes (Counties, AgeBands) are not counted.
func (n *Network) Bytes() int64 {
	c := &n.csr
	return int64(len(c.Offsets))*8 +
		int64(len(c.Nbr))*4 + int64(len(c.Ctx)) + int64(len(c.Code))*4 +
		int64(len(c.recs))*int64(unsafe.Sizeof(record{})) + int64(len(c.TW))*8 + int64(len(c.Q))*4 +
		int64(len(n.Persons))*int64(unsafe.Sizeof(Person{}))
}

// Validate checks network invariants: no self-loops, neighbor IDs and
// contexts in range, every contact's T·w finite, non-negative and inside the
// fixed-point limits of QuantTW, and every undirected contact present as two
// half-edges that mirror each other — same start, duration and weight,
// contexts swapped. The simulator relies on the mirror twice: a node's
// infectious-contact count is maintained from its neighbors' rows, and its
// thinning bound sums the T·w of half-edge u→v while the scan it stands in
// for reads the T·w of v→u. Builder guarantees the mirror for the networks it
// lays out; the file loaders call Validate because a CSV line can still hold
// a self-loop or a bad weight and a binary file arrives one half-edge at a
// time.
func (n *Network) Validate() error {
	c := &n.csr
	nn := len(n.Persons)
	if len(c.Offsets) != nn+1 {
		return fmt.Errorf("synthpop: %d persons but %d adjacency rows", nn, len(c.Offsets)-1)
	}
	for i := 0; i < nn; i++ {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			e := c.At(k)
			if e.Neighbor == int32(i) {
				return fmt.Errorf("synthpop: self-loop at %d", i)
			}
			if e.Neighbor < 0 || int(e.Neighbor) >= nn {
				return fmt.Errorf("synthpop: neighbor %d out of range at node %d", e.Neighbor, i)
			}
			if e.SrcContext >= NumContexts || e.DstContext >= NumContexts {
				return fmt.Errorf("synthpop: contact %d→%d has an unknown context (%d, %d)", i, e.Neighbor, e.SrcContext, e.DstContext)
			}
		}
		if err := c.checkRow(i); err != nil {
			return err
		}
	}
	// A contact may repeat (two people can meet twice a day), so compare
	// multiplicities: half-edge k must occur in i's row as often as its
	// mirror does in the neighbor's. Rows are short, so the quadratic count
	// needs no index.
	for i := int32(0); int(i) < nn; i++ {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			nbr, ctx := c.Nbr[k], c.Ctx[k]
			mirror := CtxBits(Context(ctx>>3), Context(ctx&7))
			if fwd, back := c.countLike(k, i, nbr, ctx), c.countLike(k, nbr, i, mirror); fwd != back {
				return fmt.Errorf("synthpop: asymmetric contact between %d and %d: %+v occurs %d times, its mirror %d times",
					i, nbr, c.At(k), fwd, back)
			}
		}
	}
	return nil
}

// countLike counts the half-edges of node i's row that lead to nbr with the
// packed contexts ctx and share half-edge k's start, duration and weight.
// Records compare field by field, so a +0 weight matches a −0 one although
// their codes differ.
func (c *CSR) countLike(k int64, i, nbr int32, ctx uint8) int {
	lo, count, r := c.Offsets[i], 0, c.recs[c.Code[k]]
	for d, x := range c.Nbr[lo:c.Offsets[i+1]] {
		if j := lo + int64(d); x == nbr && c.Ctx[j] == ctx && c.recs[c.Code[j]] == r {
			count++
		}
	}
	return count
}

// Partition is a contiguous block of nodes assigned to one processing unit.
type Partition struct {
	FirstNode, LastNode int32 // inclusive range of node IDs
	HalfEdges           int   // number of half-edges owned by the block
}

// PartitionNodes splits the network's nodes into at most p contiguous
// partitions using the paper's algorithm: walk the nodes in order,
// allocating to the current partition until its incoming (half-)edge count
// exceeds E/P + ε·(E/P), where ε is the tolerance factor; all incoming
// edges of a node always land in the node's partition. The final partition
// absorbs any remainder, so fewer than p partitions may be returned for
// very skewed degree sequences.
func (n *Network) PartitionNodes(p int, epsilon float64) []Partition {
	if p <= 0 {
		p = 1
	}
	// Degrees come from the CSR offsets — the partitioner shares the flat
	// layout the simulation kernel runs on.
	csr := n.CSR()
	nn := len(n.Persons)
	totalHalf := int(csr.Offsets[nn])
	target := float64(totalHalf)/float64(p) + epsilon*float64(totalHalf)/float64(p)
	var parts []Partition
	start := 0
	count := 0
	for i := 0; i < nn; i++ {
		deg := csr.Degree(int32(i))
		count += deg
		lastPartition := len(parts) == p-1
		if float64(count) > target && !lastPartition && i > start {
			parts = append(parts, Partition{FirstNode: int32(start), LastNode: int32(i - 1), HalfEdges: count - deg})
			start = i
			count = deg
		}
	}
	if start < nn || len(parts) == 0 {
		last := nn - 1
		if last < start {
			last = start
		}
		parts = append(parts, Partition{FirstNode: int32(start), LastNode: int32(last), HalfEdges: count})
	}
	return parts
}

// PartitionNodesAligned is PartitionNodes with every partition boundary
// rounded to the nearest multiple of align. The shard-owned simulator
// requires 64-aligned ranges so that the per-node bitsets it maintains
// (infectious-neighbor bits, at-risk bits) never share a word between two
// owners — each shard then writes its bitset words without atomics. Cut
// points are rounded to the nearest aligned node; cuts that collide or
// fall outside (0, n) after rounding are dropped, so fewer than p
// partitions may be returned for small networks. HalfEdges loads are
// recomputed from the CSR offsets after rounding.
func (n *Network) PartitionNodesAligned(p int, epsilon float64, align int) []Partition {
	parts := n.PartitionNodes(p, epsilon)
	if align <= 1 || len(parts) <= 1 {
		return parts
	}
	nn := len(n.Persons)
	a := int32(align)
	cuts := make([]int32, 0, len(parts)-1)
	prev := int32(0)
	for _, part := range parts[:len(parts)-1] {
		c := part.LastNode + 1
		c = (c + a/2) / a * a // round to nearest aligned boundary
		if c <= prev {
			c = prev + a // keep cuts strictly increasing
		}
		if c >= int32(nn) {
			break
		}
		cuts = append(cuts, c)
		prev = c
	}
	csr := n.CSR()
	out := make([]Partition, 0, len(cuts)+1)
	start := int32(0)
	for _, c := range cuts {
		out = append(out, Partition{
			FirstNode: start, LastNode: c - 1,
			HalfEdges: int(csr.Offsets[c] - csr.Offsets[start]),
		})
		start = c
	}
	out = append(out, Partition{
		FirstNode: start, LastNode: int32(nn - 1),
		HalfEdges: int(csr.Offsets[nn] - csr.Offsets[start]),
	})
	return out
}

// PartitionImbalance returns max/mean half-edge load across partitions, a
// quality measure for the partitioner (1.0 is perfect balance).
func PartitionImbalance(parts []Partition) float64 {
	if len(parts) == 0 {
		return 0
	}
	total, max := 0, 0
	for _, p := range parts {
		total += p.HalfEdges
		if p.HalfEdges > max {
			max = p.HalfEdges
		}
	}
	mean := float64(total) / float64(len(parts))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

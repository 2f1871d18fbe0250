package synthpop

import (
	"fmt"
	"slices"
)

// Builder is the one way to lay out a contact network from a sequence of
// undirected contacts: the generators, the CSV reader and hand-built test
// networks all state their contacts as a wiring function that calls
// AddContact, and Build runs it twice. The first pass only counts each row's
// half-edges; the second writes every half-edge straight into its final slot
// in the exactly sized columns. No list of the contacts is ever held, so
// building a network peaks close to the network's own size.
type Builder struct {
	region     string
	persons    []Person
	households []Household
	csr        *CSR
	// cursor is nil during the count pass, which counts row i's half-edges
	// in csr.Offsets[i+1]. During the scatter pass it holds each row's next
	// free slot.
	cursor []int64
	// window holds the latest contacts, up to windowLen, until flush lays
	// them out together.
	window []windowed
	err    error
}

// windowed is one contact in the window: u and the half-edge u→v.
type windowed struct {
	u int32
	HalfEdge
}

// windowLen is the number of contacts flush lays out at a time (80 KB). Each
// half-edge lands in a scattered row, and a tight loop over a window keeps
// many of those writes in flight at once, where one write per AddContact,
// between the wiring function's own work, would wait on each in turn.
const windowLen = 1 << 12

// NewBuilder starts a network over the given persons, whose IDs must be
// their indices.
func NewBuilder(region string, persons []Person) *Builder {
	return &Builder{region: region, persons: persons}
}

// AddContact records one undirected contact between u and v, with each
// endpoint's own context. A contact may repeat, in either endpoint order.
// It is called only from the wiring function Build runs. An endpoint that
// is not a person, or a context the columns cannot hold, is reported by
// Build.
func (b *Builder) AddContact(u, v int32, cu, cv Context, start, dur uint16, w float32) {
	if b.err != nil {
		return
	}
	n := int32(len(b.persons))
	if u < 0 || u >= n || v < 0 || v >= n || cu >= NumContexts || cv >= NumContexts {
		b.err = fmt.Errorf("synthpop: contact %d(%d)–%d(%d) outside %d persons and %d contexts", u, cu, v, cv, n, NumContexts)
		return
	}
	b.window = append(b.window, windowed{u, HalfEdge{Neighbor: v, SrcContext: cu, DstContext: cv, StartMin: start, DurationMin: dur, Weight: w}})
	if len(b.window) == windowLen {
		b.flush()
	}
}

// flush lays out the window's contacts in order and empties it: the count
// pass counts them, the scatter pass writes u's half-edge and then v's at
// their rows' cursors. A row that runs past its count spills into the next
// row, which Build's final check refuses; only a write past the last slot
// has to be stopped here.
func (b *Builder) flush() {
	c, window := b.csr, b.window
	b.window = b.window[:0]
	if b.cursor == nil {
		for _, x := range window {
			c.Offsets[x.u+1]++
			c.Offsets[x.Neighbor+1]++
		}
		return
	}
	cur, end := b.cursor, int64(len(c.Nbr))
	for _, x := range window {
		u, e := x.u, x.HalfEdge
		v := e.Neighbor
		if cur[u] == end {
			b.err = errOverrun(end)
			return
		}
		// Both half-edges of a contact share its record and so its code.
		code := c.intern(record{e.StartMin, e.DurationMin, e.Weight})
		c.put(cur[u], v, CtxBits(e.SrcContext, e.DstContext), code)
		cur[u]++
		if cur[v] == end {
			b.err = errOverrun(end)
			return
		}
		c.put(cur[v], u, CtxBits(e.DstContext, e.SrcContext), code)
		cur[v]++
	}
}

func errOverrun(end int64) error {
	return fmt.Errorf("synthpop: wiring did not replay: more than the %d half-edges counted", end)
}

// Build lays out the contacts that wire adds as a Network. It calls wire
// twice, and wire must add the same contacts in the same order both times —
// a generator replays its random draws from a copy of its RNG. Contact k
// writes u's half-edge and then v's, so every row lists its contacts in the
// order they were added, exactly as appending to per-person rows would. The
// simulator picks an infector by position in the row, so this order is part
// of every result. A second pass that gives any row more or fewer half-edges
// than the first counted is an error, never a network.
func (b *Builder) Build(wire func(*Builder)) (*Network, error) {
	n := len(b.persons)
	net := &Network{Region: b.region, Persons: b.persons, households: b.households}
	c := &net.csr
	b.csr, b.window, b.err = c, make([]windowed, 0, windowLen), nil
	defer func() { b.csr, b.cursor, b.window = nil, nil, nil }()

	// Count pass: row i's half-edges land in Offsets[i+1], and a prefix sum
	// turns the counts into row starts.
	c.Offsets = make([]int64, n+1)
	if err := b.pass(wire); err != nil {
		return nil, err
	}
	for i := 1; i <= n; i++ {
		c.Offsets[i] += c.Offsets[i-1]
	}
	total := uint64(c.Offsets[n])
	c.resize(total, total)

	// Scatter pass: each half-edge goes to its row's cursor, and every
	// cursor must end where the next row starts.
	b.cursor = slices.Clone(c.Offsets[:n])
	if err := b.pass(wire); err != nil {
		return nil, err
	}
	for i, k := range b.cursor {
		if k != c.Offsets[i+1] {
			return nil, fmt.Errorf("synthpop: wiring did not replay: row %d gets %d of the %d half-edges counted", i, k-c.Offsets[i], c.Offsets[i+1]-c.Offsets[i])
		}
	}
	b.cursor = nil
	if err := c.seal(); err != nil {
		return nil, err
	}
	return net, nil
}

// pass runs wire once and lays out what is left in the window.
func (b *Builder) pass(wire func(*Builder)) error {
	wire(b)
	if b.err == nil {
		b.flush()
	}
	return b.err
}

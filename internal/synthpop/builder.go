package synthpop

import "fmt"

// contact is one undirected contact as a Builder records it: u and the
// half-edge u→v, 20 bytes.
type contact struct {
	u int32
	HalfEdge
}

// contactChunk is the number of contacts per chunk of a Builder's list
// (320 KB): a few hundred chunks hold a large state, and the last,
// part-filled one wastes little.
const contactChunk = 1 << 14

// Builder is the one way to lay out a contact network from a sequence of
// undirected contacts: the generators, the CSV reader and hand-built test
// networks all record their contacts with AddContact and call Build once.
// The contacts sit in an append-only chunked list, so recording never copies
// what was recorded before, and Build releases them.
type Builder struct {
	region     string
	persons    []Person
	households []Household
	chunks     [][]contact
	err        error
}

// NewBuilder starts a network over the given persons, whose IDs must be
// their indices.
func NewBuilder(region string, persons []Person) *Builder {
	return &Builder{region: region, persons: persons}
}

// AddContact records one undirected contact between u and v, with each
// endpoint's own context. A contact may repeat, in either endpoint order.
// An endpoint that is not a person, or a context the columns cannot hold, is
// reported by Build.
func (b *Builder) AddContact(u, v int32, cu, cv Context, start, dur uint16, w float32) {
	n := int32(len(b.persons))
	if u < 0 || u >= n || v < 0 || v >= n || cu >= NumContexts || cv >= NumContexts {
		if b.err == nil {
			b.err = fmt.Errorf("synthpop: contact %d(%d)–%d(%d) outside %d persons and %d contexts", u, cu, v, cv, n, NumContexts)
		}
		return
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == contactChunk {
		b.chunks = append(b.chunks, make([]contact, 0, contactChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], contact{u, HalfEdge{Neighbor: v, SrcContext: cu, DstContext: cv, StartMin: start, DurationMin: dur, Weight: w}})
}

// Build lays the recorded contacts out as a Network and empties the builder.
// The layout is a stable counting sort in which contact k writes u's
// half-edge and then v's: every row lists its contacts in the order they were
// added, exactly as appending to per-person rows would. The simulator picks
// an infector by position in the row, so this order is part of every result.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.persons)
	net := &Network{Region: b.region, Persons: b.persons, households: b.households}
	c := &net.csr

	// Count row i's half-edges in off[i+1] and turn the counts into row
	// starts in place. The scatter then uses off[i+1] as row i's write
	// cursor, which leaves it at row i's end — the start of row i+1 — so the
	// cursors end up being the offsets, with no second array.
	off := make([]int64, n+1)
	for _, chunk := range b.chunks {
		for i := range chunk {
			off[chunk[i].u+1]++
			off[chunk[i].Neighbor+1]++
		}
	}
	total := int64(0)
	for i := 1; i <= n; i++ {
		total, off[i] = total+off[i], total
	}
	c.Offsets = off
	c.resize(uint64(total), uint64(total))
	for _, chunk := range b.chunks {
		for i := range chunk {
			u, e := chunk[i].u, chunk[i].HalfEdge
			v := e.Neighbor
			c.set(off[u+1], e)
			off[u+1]++
			e.Neighbor, e.SrcContext, e.DstContext = u, e.DstContext, e.SrcContext
			c.set(off[v+1], e)
			off[v+1]++
		}
	}
	b.chunks = nil
	c.seal()
	return net, nil
}

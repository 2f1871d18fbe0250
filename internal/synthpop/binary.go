package synthpop

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file implements the binary network format ("the contact network,
// which, due to its large size, is in csv or binary format") and the
// partition cache ("we can also cache the result of the partitioning
// computation on disk, which saves time on future runs"). The binary forms
// are little-endian, versioned, and ~3× smaller and ~10× faster to load
// than the CSV form.

const (
	networkMagic   = 0x45504948 // "EPIH"
	networkVersion = 2
	partitionMagic = 0x50415254 // "PART"
)

// WriteNetworkBinary writes persons + contacts in the binary format: a
// degree table followed by every half-edge in row order, as 16-byte HalfEdge
// records — the in-memory columns, interleaved.
func WriteNetworkBinary(w io.Writer, net *Network) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint32{networkMagic, networkVersion, uint32(len(net.Persons))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := writeString(bw, net.Region); err != nil {
		return err
	}
	// Manual little-endian encoding: person records are 24 bytes, edge
	// records 16; reflection-based binary.Write is ~20× slower at these
	// volumes.
	var rec [24]byte
	le := binary.LittleEndian
	for i := range net.Persons {
		p := &net.Persons[i]
		le.PutUint32(rec[0:], uint32(p.ID))
		le.PutUint32(rec[4:], uint32(p.HouseholdID))
		rec[8] = p.Age
		rec[9] = uint8(p.Gender)
		rec[10], rec[11] = 0, 0
		le.PutUint32(rec[12:], uint32(p.CountyFIPS))
		le.PutUint32(rec[16:], math.Float32bits(p.HomeLat))
		le.PutUint32(rec[20:], math.Float32bits(p.HomeLon))
		if _, err := bw.Write(rec[:24]); err != nil {
			return err
		}
	}
	c := net.CSR()
	le.PutUint64(rec[0:], uint64(len(c.Nbr)))
	if _, err := bw.Write(rec[:8]); err != nil {
		return err
	}
	for i := range net.Persons {
		le.PutUint32(rec[0:], uint32(c.Degree(int32(i))))
		if _, err := bw.Write(rec[:4]); err != nil {
			return err
		}
	}
	for k := range c.Nbr {
		e := c.At(int64(k))
		le.PutUint32(rec[0:], uint32(e.Neighbor))
		rec[4] = uint8(e.SrcContext)
		rec[5] = uint8(e.DstContext)
		rec[6], rec[7] = 0, 0
		le.PutUint16(rec[8:], e.StartMin)
		le.PutUint16(rec[10:], e.DurationMin)
		le.PutUint32(rec[12:], math.Float32bits(e.Weight))
		if _, err := bw.Write(rec[:16]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readStep is how many records ReadNetworkBinary makes room for ahead of the
// bytes it has consumed. A header can declare any count; memory is committed
// only as records actually arrive.
const readStep = 1 << 16

// ReadNetworkBinary reads a network written by WriteNetworkBinary, filling
// the columns directly: the format is already a degree table followed by
// half-edges in row order. A file whose network fails Validate is refused.
func ReadNetworkBinary(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version, n32 uint32
	for _, p := range []*uint32{&magic, &version, &n32} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("synthpop: reading binary header: %w", err)
		}
	}
	if magic != networkMagic {
		return nil, fmt.Errorf("synthpop: bad magic %#x", magic)
	}
	if version != networkVersion {
		return nil, fmt.Errorf("synthpop: unsupported network version %d", version)
	}
	region, err := readString(br)
	if err != nil {
		return nil, err
	}
	const maxPersons = 1 << 28
	if n32 > maxPersons {
		return nil, fmt.Errorf("synthpop: implausible person count %d", n32)
	}
	n := uint64(n32)
	net := &Network{Region: region}
	c := &net.csr
	le := binary.LittleEndian
	var rec [24]byte

	for i := uint64(0); i < n; i++ {
		if i%readStep == 0 {
			net.Persons = grown(net.Persons, min(i+readStep, n), n)
		}
		if _, err := io.ReadFull(br, rec[:24]); err != nil {
			return nil, fmt.Errorf("synthpop: reading person %d: %w", i, err)
		}
		net.Persons[i] = Person{
			ID:          int32(le.Uint32(rec[0:])),
			HouseholdID: int32(le.Uint32(rec[4:])),
			Age:         rec[8],
			Gender:      Gender(rec[9]),
			CountyFIPS:  int32(le.Uint32(rec[12:])),
			HomeLat:     math.Float32frombits(le.Uint32(rec[16:])),
			HomeLon:     math.Float32frombits(le.Uint32(rec[20:])),
		}
	}

	if _, err := io.ReadFull(br, rec[:8]); err != nil {
		return nil, fmt.Errorf("synthpop: reading half-edge total: %w", err)
	}
	total := le.Uint64(rec[0:])
	if total > n*(1<<24) {
		return nil, fmt.Errorf("synthpop: implausible half-edge total %d", total)
	}
	// The degree table becomes the offsets as it arrives.
	c.Offsets = make([]int64, 1)
	for i := uint64(0); i < n; i++ {
		if i%readStep == 0 {
			c.Offsets = grown(c.Offsets, 1+min(i+readStep, n), 1+n)
		}
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return nil, fmt.Errorf("synthpop: reading degree of %d: %w", i, err)
		}
		deg := le.Uint32(rec[0:])
		if deg > 1<<24 {
			return nil, fmt.Errorf("synthpop: implausible degree %d", deg)
		}
		c.Offsets[i+1] = c.Offsets[i] + int64(deg)
	}
	if sum := uint64(c.Offsets[n]); sum != total {
		return nil, fmt.Errorf("synthpop: degree table sums to %d, header says %d", sum, total)
	}

	for k := uint64(0); k < total; k++ {
		if k%readStep == 0 {
			c.resize(min(k+readStep, total), total)
		}
		if _, err := io.ReadFull(br, rec[:16]); err != nil {
			return nil, fmt.Errorf("synthpop: reading edge %d: %w", k, err)
		}
		e := HalfEdge{
			Neighbor:    int32(le.Uint32(rec[0:])),
			SrcContext:  Context(rec[4]),
			DstContext:  Context(rec[5]),
			StartMin:    le.Uint16(rec[8:]),
			DurationMin: le.Uint16(rec[10:]),
			Weight:      math.Float32frombits(le.Uint32(rec[12:])),
		}
		// Refused here because the columns could not show it later.
		if e.Neighbor < 0 || uint64(e.Neighbor) >= n || e.SrcContext >= NumContexts || e.DstContext >= NumContexts {
			return nil, fmt.Errorf("synthpop: reading edge %d: endpoint %d or context (%d, %d) out of range", k, e.Neighbor, e.SrcContext, e.DstContext)
		}
		c.set(int64(k), e)
	}
	if err := c.seal(); err != nil {
		return nil, err
	}
	// Half-edges arrive one by one, so nothing yet says the two directions
	// of a contact agree — the invariant the simulator's counters rest on.
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// WritePartitions caches a partitioning to disk.
func WritePartitions(w io.Writer, parts []Partition) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint32(partitionMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(parts))); err != nil {
		return err
	}
	for _, p := range parts {
		if err := binary.Write(bw, binary.LittleEndian, struct {
			First, Last int32
			HalfEdges   int64
		}{p.FirstNode, p.LastNode, int64(p.HalfEdges)}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPartitions loads a cached partitioning.
func ReadPartitions(r io.Reader) ([]Partition, error) {
	br := bufio.NewReader(r)
	var magic, n uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("synthpop: reading partition header: %w", err)
	}
	if magic != partitionMagic {
		return nil, fmt.Errorf("synthpop: bad partition magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("synthpop: implausible partition count %d", n)
	}
	parts := make([]Partition, n)
	for i := range parts {
		var rec struct {
			First, Last int32
			HalfEdges   int64
		}
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("synthpop: reading partition %d: %w", i, err)
		}
		parts[i] = Partition{FirstNode: rec.First, LastNode: rec.Last, HalfEdges: int(rec.HalfEdges)}
	}
	return parts, nil
}

// ValidatePartitionsFor checks that a cached partitioning matches the
// network it is applied to (coverage, ordering, half-edge totals) — the
// guard against applying a stale cache after a regeneration.
func ValidatePartitionsFor(parts []Partition, net *Network) error {
	if len(parts) == 0 {
		return fmt.Errorf("synthpop: empty partitioning")
	}
	offsets := net.CSR().Offsets
	next := int32(0)
	for i, p := range parts {
		if p.FirstNode != next || p.LastNode < p.FirstNode {
			return fmt.Errorf("synthpop: partition %d malformed or out of order", i)
		}
		if int(p.LastNode) >= net.NumNodes() {
			return fmt.Errorf("synthpop: partition %d ends at node %d of %d", i, p.LastNode, net.NumNodes())
		}
		count := int(offsets[p.LastNode+1] - offsets[p.FirstNode])
		if count != p.HalfEdges {
			return fmt.Errorf("synthpop: partition %d half-edge count %d does not match network %d (stale cache?)", i, p.HalfEdges, count)
		}
		next = p.LastNode + 1
	}
	if int(next) != net.NumNodes() {
		return fmt.Errorf("synthpop: partitions cover %d of %d nodes", next, net.NumNodes())
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

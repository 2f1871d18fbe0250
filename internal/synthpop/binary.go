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
	networkMagic     = 0x45504948 // "EPIH"
	networkVersionV1 = 1
	networkVersion   = 2
	partitionMagic   = 0x50415254 // "PART"
)

// WriteNetworkBinary writes persons + adjacency in the binary format.
// Version 2 stores the adjacency in CSR order — a degree table followed
// by one flat edge array — mirroring the in-memory layout the simulation
// kernel runs on, so a reader can materialize the whole adjacency as a
// single contiguous allocation.
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
	// CSR degree table, then every half-edge in row order.
	totalHalf := uint64(0)
	for i := range net.Adj {
		totalHalf += uint64(len(net.Adj[i]))
	}
	le.PutUint64(rec[0:], totalHalf)
	if _, err := bw.Write(rec[:8]); err != nil {
		return err
	}
	for i := range net.Adj {
		le.PutUint32(rec[0:], uint32(len(net.Adj[i])))
		if _, err := bw.Write(rec[:4]); err != nil {
			return err
		}
	}
	for i := range net.Adj {
		for _, e := range net.Adj[i] {
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
	}
	return bw.Flush()
}

// ReadNetworkBinary reads a network written by WriteNetworkBinary. Both
// the CSR-ordered version-2 format and the interleaved version-1 format
// are accepted; a file whose network fails Validate is refused.
func ReadNetworkBinary(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version, n uint32
	for _, p := range []*uint32{&magic, &version, &n} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("synthpop: reading binary header: %w", err)
		}
	}
	if magic != networkMagic {
		return nil, fmt.Errorf("synthpop: bad magic %#x", magic)
	}
	if version != networkVersionV1 && version != networkVersion {
		return nil, fmt.Errorf("synthpop: unsupported network version %d", version)
	}
	region, err := readString(br)
	if err != nil {
		return nil, err
	}
	const maxPersons = 1 << 28
	if n > maxPersons {
		return nil, fmt.Errorf("synthpop: implausible person count %d", n)
	}
	net := &Network{Region: region, Persons: make([]Person, n), Adj: make([][]HalfEdge, n)}
	le := binary.LittleEndian
	var rec [24]byte
	for i := range net.Persons {
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
	if version == networkVersionV1 {
		err = readAdjV1(br, net, n)
	} else {
		err = readAdjV2(br, net, n)
	}
	if err != nil {
		return nil, err
	}
	// Half-edges arrive one by one, so nothing yet says the two directions
	// of a contact agree — the invariant the simulator's counters rest on.
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// readAdjV1 reads the interleaved degree/edge rows of the version-1
// format, one allocation per row.
func readAdjV1(br *bufio.Reader, net *Network, n uint32) error {
	le := binary.LittleEndian
	var rec [16]byte
	for i := 0; i < int(n); i++ {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return fmt.Errorf("synthpop: reading degree of %d: %w", i, err)
		}
		deg := le.Uint32(rec[0:])
		if deg > 1<<24 {
			return fmt.Errorf("synthpop: implausible degree %d", deg)
		}
		adj := make([]HalfEdge, deg)
		for j := range adj {
			if err := readHalfEdge(br, rec[:], int32(n), &adj[j]); err != nil {
				return fmt.Errorf("synthpop: reading edge %d/%d: %w", i, j, err)
			}
		}
		net.Adj[i] = adj
	}
	return nil
}

// readAdjV2 reads the CSR-ordered version-2 adjacency: the degree table
// sizes one contiguous backing array, and every Adj row becomes a
// subslice of it — n rows, two allocations.
func readAdjV2(br *bufio.Reader, net *Network, n uint32) error {
	le := binary.LittleEndian
	var rec [16]byte
	if _, err := io.ReadFull(br, rec[:8]); err != nil {
		return fmt.Errorf("synthpop: reading half-edge total: %w", err)
	}
	totalHalf := le.Uint64(rec[0:])
	if totalHalf > uint64(n)*(1<<24) {
		return fmt.Errorf("synthpop: implausible half-edge total %d", totalHalf)
	}
	degrees := make([]uint32, n)
	sum := uint64(0)
	for i := range degrees {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return fmt.Errorf("synthpop: reading degree of %d: %w", i, err)
		}
		degrees[i] = le.Uint32(rec[0:])
		if degrees[i] > 1<<24 {
			return fmt.Errorf("synthpop: implausible degree %d", degrees[i])
		}
		sum += uint64(degrees[i])
	}
	if sum != totalHalf {
		return fmt.Errorf("synthpop: degree table sums to %d, header says %d", sum, totalHalf)
	}
	backing := make([]HalfEdge, totalHalf)
	for i := range backing {
		if err := readHalfEdge(br, rec[:], int32(n), &backing[i]); err != nil {
			return fmt.Errorf("synthpop: reading edge %d: %w", i, err)
		}
	}
	off := uint64(0)
	for i, deg := range degrees {
		net.Adj[i] = backing[off : off+uint64(deg) : off+uint64(deg)]
		off += uint64(deg)
	}
	return nil
}

func readHalfEdge(br *bufio.Reader, rec []byte, n int32, e *HalfEdge) error {
	if _, err := io.ReadFull(br, rec[:16]); err != nil {
		return err
	}
	le := binary.LittleEndian
	nbr := int32(le.Uint32(rec[0:]))
	if nbr < 0 || nbr >= n {
		return fmt.Errorf("edge endpoint %d out of range", nbr)
	}
	*e = HalfEdge{
		Neighbor:    nbr,
		SrcContext:  Context(rec[4]),
		DstContext:  Context(rec[5]),
		StartMin:    le.Uint16(rec[8:]),
		DurationMin: le.Uint16(rec[10:]),
		Weight:      math.Float32frombits(le.Uint32(rec[12:])),
	}
	return nil
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
	next := int32(0)
	total := 0
	for i, p := range parts {
		if p.FirstNode != next || p.LastNode < p.FirstNode {
			return fmt.Errorf("synthpop: partition %d malformed or out of order", i)
		}
		count := 0
		for node := p.FirstNode; node <= p.LastNode; node++ {
			count += len(net.Adj[node])
		}
		if count != p.HalfEdges {
			return fmt.Errorf("synthpop: partition %d half-edge count %d does not match network %d (stale cache?)", i, p.HalfEdges, count)
		}
		total += count
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

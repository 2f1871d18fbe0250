// Package popdb provides the run-time population database of the workflow.
//
// The production pipeline loads each region's synthetic-person table into a
// PostgreSQL server started per population on a cluster node; simulations
// query traits at run time, and the number of simultaneous connections is
// hard-bounded "for technology and efficiency reasons" — the constraint
// that turns the workflow-mapping problem into DB-WMP (Section V). This
// package reproduces that substrate in-process: a per-region Server with a
// strict connection cap, snapshot instantiation (the paper snapshots the
// databases to speed up nightly start-up), and trait queries.
package popdb

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/synthpop"
)

// Server serves one region's person table under a connection bound.
type Server struct {
	region   string
	persons  []synthpop.Person
	byCounty map[int32][]int32
	maxConns int

	mu      sync.Mutex
	open    int
	peak    int
	refused int
	queries int64
}

// NewServer builds a server over the given persons with the given maximum
// number of simultaneous connections (B(T[r]) in the paper's notation).
func NewServer(region string, persons []synthpop.Person, maxConns int) (*Server, error) {
	if maxConns <= 0 {
		return nil, fmt.Errorf("popdb: connection bound must be positive, got %d", maxConns)
	}
	s := &Server{
		region:   region,
		persons:  persons,
		byCounty: make(map[int32][]int32),
		maxConns: maxConns,
	}
	for i := range persons {
		p := &persons[i]
		s.byCounty[p.CountyFIPS] = append(s.byCounty[p.CountyFIPS], p.ID)
	}
	return s, nil
}

// Region returns the server's region code.
func (s *Server) Region() string { return s.region }

// Conn is an open connection to a Server. Connections are not safe for
// concurrent use; open one per worker.
type Conn struct {
	s      *Server
	closed bool
}

// ErrTooManyConnections is returned by TryConnect when the server is at its
// bound.
var ErrTooManyConnections = fmt.Errorf("popdb: connection bound reached")

// TryConnect opens a connection, failing immediately with
// ErrTooManyConnections when the server is at its cap. Schedulers use the
// cap a priori; TryConnect enforces it at run time as a backstop.
func (s *Server) TryConnect() (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open >= s.maxConns {
		s.refused++
		return nil, ErrTooManyConnections
	}
	s.open++
	if s.open > s.peak {
		s.peak = s.open
	}
	return &Conn{s: s}, nil
}

// Close releases the connection. Closing twice is a no-op.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.s.mu.Lock()
	c.s.open--
	c.s.mu.Unlock()
}

// Person returns the person with the given ID.
func (c *Conn) Person(id int32) (synthpop.Person, error) {
	if c.closed {
		return synthpop.Person{}, fmt.Errorf("popdb: query on closed connection")
	}
	c.s.mu.Lock()
	c.s.queries++
	c.s.mu.Unlock()
	if id < 0 || int(id) >= len(c.s.persons) {
		return synthpop.Person{}, fmt.Errorf("popdb: person %d not found", id)
	}
	return c.s.persons[id], nil
}

// PersonsInCounty returns the IDs of persons living in the county.
func (c *Conn) PersonsInCounty(fips int32) ([]int32, error) {
	if c.closed {
		return nil, fmt.Errorf("popdb: query on closed connection")
	}
	c.s.mu.Lock()
	c.s.queries++
	c.s.mu.Unlock()
	return c.s.byCounty[fips], nil
}

// Stats is a snapshot of the server's usage counters.
type Stats struct {
	Open, Peak, Refused int
	Queries             int64
}

// Stats returns current usage counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Open: s.open, Peak: s.peak, Refused: s.refused, Queries: s.queries}
}

// Snapshot is a serialized person table; the workflow generates one per
// population when the populations are created and instantiates servers
// from it at run time.
type Snapshot struct {
	Region  string
	Persons []synthpop.Person
}

// TakeSnapshot serializes the server's population.
func (s *Server) TakeSnapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Snapshot{Region: s.region, Persons: s.persons}); err != nil {
		return nil, fmt.Errorf("popdb: snapshot encode: %w", err)
	}
	return buf.Bytes(), nil
}

// FromSnapshot instantiates a server from a snapshot with the given
// connection bound.
func FromSnapshot(data []byte, maxConns int) (*Server, error) {
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("popdb: snapshot decode: %w", err)
	}
	return NewServer(snap.Region, snap.Persons, maxConns)
}

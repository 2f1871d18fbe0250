package popdb

import (
	"sync"
	"testing"

	"repro/internal/synthpop"
)

func testPersons(n int) []synthpop.Person {
	ps := make([]synthpop.Person, n)
	for i := range ps {
		ps[i] = synthpop.Person{ID: int32(i), Age: uint8(20 + i%50), CountyFIPS: int32(51001 + (i%3)*2)}
	}
	return ps
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("VA", nil, 0); err == nil {
		t.Fatal("zero connection bound accepted")
	}
	s, err := NewServer("VA", testPersons(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Region() != "VA" || len(s.persons) != 10 || s.maxConns != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestConnectionBoundEnforced(t *testing.T) {
	s, _ := NewServer("VA", testPersons(5), 2)
	c1, err := s.TryConnect()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.TryConnect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TryConnect(); err != ErrTooManyConnections {
		t.Fatalf("third connection: %v want ErrTooManyConnections", err)
	}
	c1.Close()
	c3, err := s.TryConnect()
	if err != nil {
		t.Fatalf("connect after close: %v", err)
	}
	c2.Close()
	c3.Close()
	st := s.Stats()
	if st.Open != 0 || st.Peak != 2 || st.Refused != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	s, _ := NewServer("VA", testPersons(5), 1)
	c, _ := s.TryConnect()
	c.Close()
	c.Close()
	if st := s.Stats(); st.Open != 0 {
		t.Fatalf("double close corrupted count: %+v", st)
	}
}

func TestQueries(t *testing.T) {
	s, _ := NewServer("VA", testPersons(9), 4)
	c, _ := s.TryConnect()
	defer c.Close()
	p, err := c.Person(3)
	if err != nil || p.ID != 3 {
		t.Fatalf("person query: %+v, %v", p, err)
	}
	if _, err := c.Person(99); err == nil {
		t.Error("missing person accepted")
	}
	ids, err := c.PersonsInCounty(51001)
	if err != nil || len(ids) != 3 {
		t.Fatalf("county query: %v, %v", ids, err)
	}
	// Three queries served, including the failed Person lookup.
	if s.Stats().Queries != 3 {
		t.Fatalf("query count %d want 3", s.Stats().Queries)
	}
}

func TestClosedConnectionRejectsQueries(t *testing.T) {
	s, _ := NewServer("VA", testPersons(3), 1)
	c, _ := s.TryConnect()
	c.Close()
	if _, err := c.Person(0); err == nil {
		t.Error("closed conn served Person")
	}
	if _, err := c.PersonsInCounty(51001); err == nil {
		t.Error("closed conn served PersonsInCounty")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, _ := NewServer("VA", testPersons(20), 3)
	snap, err := s.TakeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(snap, 5)
	if err != nil {
		t.Fatal(err)
	}
	if back.Region() != "VA" || len(back.persons) != 20 || back.maxConns != 5 {
		t.Fatalf("snapshot server wrong: %s %d %d", back.Region(), len(back.persons), back.maxConns)
	}
	c, _ := back.TryConnect()
	defer c.Close()
	p, err := c.Person(7)
	if err != nil || p.Age != uint8(20+7%50) {
		t.Fatalf("snapshot person: %+v, %v", p, err)
	}
}

func TestFromSnapshotBadData(t *testing.T) {
	if _, err := FromSnapshot([]byte("garbage"), 2); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestConcurrentConnectionsNeverExceedBound(t *testing.T) {
	const bound = 8
	s, _ := NewServer("VA", testPersons(100), bound)
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c, err := s.TryConnect()
				if err != nil {
					continue
				}
				if _, err := c.Person(int32(i % 100)); err != nil {
					t.Error(err)
				}
				c.Close()
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Peak > bound {
		t.Fatalf("peak %d exceeded bound %d", st.Peak, bound)
	}
	if st.Open != 0 {
		t.Fatalf("%d connections leaked", st.Open)
	}
}

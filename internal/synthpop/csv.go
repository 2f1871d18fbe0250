package synthpop

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// The paper supplies both the person traits and the contact network of each
// population as CSV files; this file implements those interchange formats
// so that populations can be generated once, written to disk, and re-read
// by simulation jobs — the same staging pattern the production workflow
// uses (2TB one-time network transfer, Table II).

// WritePersonsCSV writes the person table in the paper's trait schema:
// pid, hid, age, age_group, gender, county_fips, home_lat, home_lon.
func WritePersonsCSV(w io.Writer, net *Network) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pid", "hid", "age", "age_group", "gender", "county_fips", "home_lat", "home_lon"}); err != nil {
		return err
	}
	for i := range net.Persons {
		p := &net.Persons[i]
		rec := []string{
			strconv.Itoa(int(p.ID)),
			strconv.Itoa(int(p.HouseholdID)),
			strconv.Itoa(int(p.Age)),
			p.AgeGroup().String(),
			strconv.Itoa(int(p.Gender)),
			strconv.Itoa(int(p.CountyFIPS)),
			strconv.FormatFloat(float64(p.HomeLat), 'f', 4, 32),
			strconv.FormatFloat(float64(p.HomeLon), 'f', 4, 32),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPersonsCSV parses a person table written by WritePersonsCSV.
func ReadPersonsCSV(r io.Reader) ([]Person, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("synthpop: reading person header: %w", err)
	}
	if len(header) < 8 || header[0] != "pid" {
		return nil, fmt.Errorf("synthpop: unexpected person header %v", header)
	}
	var out []Person
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		pid, err1 := strconv.Atoi(rec[0])
		hid, err2 := strconv.Atoi(rec[1])
		age, err3 := strconv.Atoi(rec[2])
		gender, err4 := strconv.Atoi(rec[4])
		fips, err5 := strconv.Atoi(rec[5])
		lat, err6 := strconv.ParseFloat(rec[6], 32)
		lon, err7 := strconv.ParseFloat(rec[7], 32)
		for _, e := range []error{err1, err2, err3, err4, err5, err6, err7} {
			if e != nil {
				return nil, fmt.Errorf("synthpop: bad person record %v: %w", rec, e)
			}
		}
		out = append(out, Person{
			ID: int32(pid), HouseholdID: int32(hid), Age: uint8(age),
			Gender: Gender(gender), CountyFIPS: int32(fips),
			HomeLat: float32(lat), HomeLon: float32(lon),
		})
	}
	return out, nil
}

// WriteNetworkCSV writes the contact edges in the paper's schema: each
// undirected edge once as source pid, target pid, source activity, target
// activity, start time, duration, weight. The edge is emitted from the
// endpoint with the smaller ID.
func WriteNetworkCSV(w io.Writer, net *Network) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "source_pid,target_pid,source_activity,target_activity,start_min,duration_min,weight"); err != nil {
		return err
	}
	c := net.CSR()
	for i := range net.Persons {
		for k := c.Offsets[i]; k < c.Offsets[i+1]; k++ {
			e := c.At(k)
			if e.Neighbor < int32(i) {
				continue // emit each undirected edge once
			}
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d,%g\n",
				i, e.Neighbor, e.SrcContext, e.DstContext, e.StartMin, e.DurationMin, e.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadNetworkCSV parses a network written by WriteNetworkCSV into the given
// set of persons; the Builder restores both half-edges of every line. A file
// whose network fails Validate is refused. A reader cannot be rewound for the
// Builder's second pass, so the lines are parsed into a list of contacts,
// 20 bytes each, which Build replays.
func ReadNetworkCSV(r io.Reader, persons []Person, region string) (*Network, error) {
	type contact struct {
		u int32
		HalfEdge
	}
	var contacts []contact
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("synthpop: empty network file")
	}
	line := 1
	for sc.Scan() {
		line++
		rec := splitCSVLine(sc.Text(), 7)
		if rec == nil {
			return nil, fmt.Errorf("synthpop: line %d: malformed edge record", line)
		}
		u, err1 := strconv.Atoi(rec[0])
		v, err2 := strconv.Atoi(rec[1])
		cs, err3 := ParseContext(rec[2])
		cd, err4 := ParseContext(rec[3])
		start, err5 := strconv.Atoi(rec[4])
		dur, err6 := strconv.Atoi(rec[5])
		wt, err7 := strconv.ParseFloat(rec[6], 32)
		for _, e := range []error{err1, err2, err3, err4, err5, err6, err7} {
			if e != nil {
				return nil, fmt.Errorf("synthpop: line %d: %w", line, e)
			}
		}
		if u < 0 || u >= len(persons) || v < 0 || v >= len(persons) {
			return nil, fmt.Errorf("synthpop: line %d: endpoint out of range", line)
		}
		contacts = append(contacts, contact{int32(u), HalfEdge{
			Neighbor: int32(v), SrcContext: cs, DstContext: cd,
			StartMin: uint16(start), DurationMin: uint16(dur), Weight: float32(wt),
		}})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	net, err := NewBuilder(region, persons).Build(func(b *Builder) {
		for _, c := range contacts {
			b.AddContact(c.u, c.Neighbor, c.SrcContext, c.DstContext, c.StartMin, c.DurationMin, c.Weight)
		}
	})
	if err != nil {
		return nil, err
	}
	// The Builder mirrors every contact; Validate adds the weight checks
	// (NaN, negative, out of range) and refuses self-loops.
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// splitCSVLine splits a simple comma-separated line into exactly n fields
// without allocation-heavy csv.Reader machinery (edge files are large).
func splitCSVLine(s string, n int) []string {
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	if len(out) != n {
		return nil
	}
	return out
}

// PersonBytes estimates the serialized size of the person table, used for
// the data-transfer accounting of Tables I and II.
func (n *Network) PersonBytes() int64 {
	return int64(len(n.Persons)) * 48 // ~48 bytes per CSV row
}

// EdgeBytes estimates the serialized size of the network file.
func (n *Network) EdgeBytes() int64 {
	return int64(n.NumEdges()) * 44 // ~44 bytes per CSV row
}

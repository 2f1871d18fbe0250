package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/disease"
	"repro/internal/epihiper"
	"repro/internal/obs"
	"repro/internal/output"
	"repro/internal/popdb"
	"repro/internal/transfer"
)

// testPipeline runs at a very coarse scale so workflows stay fast.
func testPipeline(seed uint64) *Pipeline {
	return NewPipeline(seed, WithScale(40000), WithParallelism(2))
}

func TestPipelineOptions(t *testing.T) {
	p := NewPipeline(1, WithScale(5000), WithParallelism(3))
	if p.Scale != 5000 || p.Parallelism != 3 {
		t.Fatalf("options not applied: %+v", p)
	}
}

func TestNetworkCachedAndStaged(t *testing.T) {
	p := testPipeline(1)
	a, err := p.Network("VA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Network("VA")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("network not cached")
	}
	// Exactly one staging transfer.
	staged := 0
	for _, r := range p.Ledger.Records {
		if r.Label == "network-staging" {
			staged++
		}
	}
	if staged != 1 {
		t.Fatalf("%d staging transfers want 1", staged)
	}
	if _, err := p.Network("ZZ"); err == nil {
		t.Fatal("unknown state accepted")
	}
}

func TestDBFromSnapshot(t *testing.T) {
	p := testPipeline(2)
	db, err := p.DB("VA")
	if err != nil {
		t.Fatal(err)
	}
	db2, err := p.DB("VA")
	if err != nil {
		t.Fatal(err)
	}
	if db != db2 {
		t.Fatal("DB not cached")
	}
	net, _ := p.Network("VA")
	c, err := db.TryConnect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Person(int32(net.NumNodes() - 1)); err != nil {
		t.Fatalf("DB population mismatch: %v", err)
	}
	if _, err := c.Person(int32(net.NumNodes())); err == nil {
		t.Fatal("DB population mismatch: person past the network served")
	}
	for i := 1; i < p.DBConnBound; i++ {
		ci, err := db.TryConnect()
		if err != nil {
			t.Fatalf("connection %d of %d refused: %v", i+1, p.DBConnBound, err)
		}
		defer ci.Close()
	}
	if _, err := db.TryConnect(); !errors.Is(err, popdb.ErrTooManyConnections) {
		t.Fatalf("DB bound not applied: got %v", err)
	}
}

func TestParamsApplyToModel(t *testing.T) {
	pr := Params{TAU: 0.25, SYMP: 0.7}
	m, err := pr.ApplyToModel(disease.COVID19())
	if err != nil {
		t.Fatal(err)
	}
	if m.Transmissibility != 0.25 {
		t.Fatal("TAU not applied")
	}
	for _, tr := range m.Transitions(disease.Exposed) {
		switch tr.To {
		case disease.Presymptomatic:
			if tr.Prob[disease.Age18to49] != 0.7 {
				t.Fatalf("SYMP not applied: %v", tr.Prob)
			}
		case disease.Asymptomatic:
			if math.Abs(tr.Prob[disease.Age18to49]-0.3) > 1e-12 {
				t.Fatalf("asymptomatic complement wrong: %v", tr.Prob)
			}
		}
	}
	// Original model untouched.
	base := disease.COVID19()
	if base.Transmissibility != 0.18 {
		t.Fatal("base model mutated")
	}
	if _, err := (Params{TAU: -1, SYMP: 0.5}).ApplyToModel(base); err == nil {
		t.Fatal("negative TAU accepted")
	}
	if _, err := (Params{TAU: 0.2, SYMP: 1.5}).ApplyToModel(base); err == nil {
		t.Fatal("SYMP > 1 accepted")
	}
}

func TestRunSim(t *testing.T) {
	p := testPipeline(4)
	out, err := p.RunSim(SimJob{
		State: "VA", Cell: 0, Replicate: 0,
		Params: Params{TAU: 0.25, SYMP: 0.65, SHCompliance: 0.3, VHICompliance: 0.3},
		Days:   40,
	}, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.TotalInfections == 0 {
		t.Fatal("no epidemic")
	}
	if out.RawBytes <= 0 {
		t.Fatal("raw byte estimate non-positive")
	}
	conf := out.Agg.StateConfirmedCumulative()
	if conf[len(conf)-1] <= 0 {
		t.Fatal("no confirmed cases aggregated")
	}
}

// TestRunSimRawBytesMatchesLog: RunSim sizes the raw output from the
// result's transition count instead of retaining the transitions; the figure
// must be exactly what a TransitionLog attached to the same simulation
// reports.
func TestRunSimRawBytesMatchesLog(t *testing.T) {
	p := testPipeline(4)
	job := SimJob{State: "VA", Params: Params{TAU: 0.25, SYMP: 0.65, SHCompliance: 0.3, VHICompliance: 0.3}, Days: 40}
	out, err := p.RunSim(job, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := p.Network(job.State)
	db, _ := p.DB(job.State)
	log := &output.TransitionLog{}
	cfg, err := p.simConfig(job, net, db, interventionsFor(job.Params, 15, 40), log)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := epihiper.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, out.Result) {
		t.Fatal("the logged simulation is not the one RunSim ran")
	}
	if len(log.Entries) < 100 {
		t.Fatalf("only %d transitions; the run is too quiet to test anything", len(log.Entries))
	}
	if want := 24 * int64(len(log.Entries)) * int64(p.Scale); out.RawBytes != want || out.RawBytes != log.RawBytes()*int64(p.Scale) {
		t.Errorf("RawBytes %d, want 24 × %d transitions × scale %d = %d", out.RawBytes, len(log.Entries), p.Scale, want)
	}
}

// TestTopCounties pins the seeding-county choice against a plain recount:
// most populous first, ties by ascending FIPS.
func TestTopCounties(t *testing.T) {
	p := testPipeline(9)
	net, err := p.Network("VA")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int32]int{}
	for i := range net.Persons {
		counts[net.Persons[i].CountyFIPS]++
	}
	var want []int32
	for c := range counts {
		want = append(want, c)
	}
	sort.Slice(want, func(i, j int) bool {
		if counts[want[i]] != counts[want[j]] {
			return counts[want[i]] > counts[want[j]]
		}
		return want[i] < want[j]
	})
	if got := topCounties(net, len(want)+5); !slices.Equal(got, want) {
		t.Errorf("all counties: got %v, want %v", got, want)
	}
	if got := topCounties(net, 3); !slices.Equal(got, want[:3]) {
		t.Errorf("top 3: got %v, want %v", got, want[:3])
	}
}

// TestPipelineRegistryCarriesKernelSeries: after RegisterMetrics, the
// simulations a workflow runs publish the simulator's series — what puts
// epi_shards, the shard phase histograms, the kernel work counters and the
// materialised network's size on episerve's /metrics — and publishing changes
// no result.
func TestPipelineRegistryCarriesKernelSeries(t *testing.T) {
	job := SimJob{State: "VA", Params: Params{TAU: 0.25, SYMP: 0.65, SHCompliance: 0.3, VHICompliance: 0.3}, Days: 40}
	plain, err := testPipeline(4).RunSim(job, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := testPipeline(4)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	out, err := p.RunSim(job, 15, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Result, out.Result) || plain.RawBytes != out.RawBytes {
		t.Error("a pipeline with a metrics registry computes a different result")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"epi_shards ", `epi_span_seconds_count{span="epihiper.shard.transmit"}`, `epi_span_seconds_count{span="epihiper.shard.mutate"}`,
		"epi_kernel_at_risk_visits_total ", "epi_kernel_row_scans_total ", "epi_kernel_edge_visits_total ",
		"epi_kernel_exposures_total ", "epi_kernel_cross_shard_updates_total ",
		`epi_network_bytes{state="VA"}`, `epi_network_half_edges{state="VA"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("series %q missing from the pipeline's registry", want)
		}
	}
	if got := reg.Counter("epi_kernel_exposures_total").Value(); got < out.Result.TotalInfections || got == 0 {
		t.Errorf("epi_kernel_exposures_total %d, infections %d", got, out.Result.TotalInfections)
	}
	net, err := p.Network("VA")
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge(`epi_network_bytes{state="VA"}`).Value(); got != float64(net.Bytes()) || got == 0 {
		t.Errorf("epi_network_bytes %g, the network holds %d", got, net.Bytes())
	}
}

func TestRunSimDeterministicPerJob(t *testing.T) {
	p := testPipeline(5)
	job := SimJob{State: "VA", Params: Params{TAU: 0.22, SYMP: 0.6, SHCompliance: 0.2, VHICompliance: 0.2}, Days: 30}
	a, err := p.RunSim(job, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.RunSim(job, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.TotalInfections != b.Result.TotalInfections {
		t.Fatal("same job differs")
	}
	job2 := job
	job2.Replicate = 1
	c, err := p.RunSim(job2, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if c.Result.TotalInfections == a.Result.TotalInfections {
		t.Log("warning: replicate produced identical infections (possible but unlikely)")
	}
}

func TestTableIAccounting(t *testing.T) {
	rows := TableI()
	if len(rows) != 3 {
		t.Fatalf("%d rows want 3", len(rows))
	}
	byKind := map[WorkflowKind]WorkflowSpec{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	// The published simulation counts.
	if n := byKind[Economic].Simulations(); n != 9180 {
		t.Errorf("economic sims %d want 9180", n)
	}
	if n := byKind[Prediction].Simulations(); n != 9180 {
		t.Errorf("prediction sims %d want 9180", n)
	}
	if n := byKind[Calibration].Simulations(); n != 15300 {
		t.Errorf("calibration sims %d want 15300", n)
	}
	// The published data volumes (within rounding of the per-sim model).
	within := func(got, want int64, tol float64) bool {
		return math.Abs(float64(got-want)) <= tol*float64(want)
	}
	if !within(byKind[Economic].RawBytes(), 3*transfer.TB, 0.01) {
		t.Errorf("economic raw %v want ≈3TB", transfer.HumanBytes(byKind[Economic].RawBytes()))
	}
	if !within(byKind[Prediction].RawBytes(), 1*transfer.TB, 0.01) {
		t.Errorf("prediction raw %v want ≈1TB", transfer.HumanBytes(byKind[Prediction].RawBytes()))
	}
	if !within(byKind[Calibration].RawBytes(), 5*transfer.TB, 0.01) {
		t.Errorf("calibration raw %v want ≈5TB", transfer.HumanBytes(byKind[Calibration].RawBytes()))
	}
	if !within(byKind[Economic].SummaryBytes(), 5*transfer.GB, 0.01) {
		t.Errorf("economic summary %v want ≈5GB", transfer.HumanBytes(byKind[Economic].SummaryBytes()))
	}
	if !within(byKind[Calibration].SummaryBytes(), 4*transfer.GB, 0.01) {
		t.Errorf("calibration summary %v want ≈4GB", transfer.HumanBytes(byKind[Calibration].SummaryBytes()))
	}
}

func TestRunNightFFDTvsNFDT(t *testing.T) {
	p := testPipeline(6)
	pred := TableI()[1]
	ff, err := p.RunNightCtx(context.Background(), NightConfig{Spec: pred, Heuristic: "FFDT-DC", Seed: 11, Day: 1})
	if err != nil {
		t.Fatal(err)
	}
	nf, err := p.RunNightCtx(context.Background(), NightConfig{Spec: pred, Heuristic: "NFDT-DC", Seed: 11, Day: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ff.Utilization < 0.90 {
		t.Fatalf("FFDT night utilization %v", ff.Utilization)
	}
	if nf.Utilization > 0.65 || nf.Utilization < 0.35 {
		t.Fatalf("NFDT night utilization %v outside the paper's band", nf.Utilization)
	}
	if !ff.FitsWindow {
		t.Fatal("FFDT night missed the 10-hour window")
	}
	if ff.Tasks != pred.Simulations() {
		t.Fatalf("night ran %d tasks want %d", ff.Tasks, pred.Simulations())
	}
	if ff.RawBytes <= 0 || ff.SummaryBytes <= 0 || ff.ConfigBytes <= 0 {
		t.Fatal("night data accounting missing")
	}
	if _, err := p.RunNightCtx(context.Background(), NightConfig{Spec: pred, Heuristic: "bogus"}); err == nil {
		t.Fatal("bogus heuristic accepted")
	}
}

func TestWeeklyTimeline(t *testing.T) {
	steps := WeeklyTimeline()
	if len(steps) < 10 {
		t.Fatalf("%d steps", len(steps))
	}
	if steps[0].Day != 0 || steps[len(steps)-1].Day != 6 {
		t.Fatal("timeline should span day 0 to day 6 (Wednesday)")
	}
	auto, manual := 0, 0
	for i := 1; i < len(steps); i++ {
		if steps[i].Day < steps[i-1].Day {
			t.Fatal("timeline not ordered")
		}
	}
	for _, s := range steps {
		if s.Automated {
			auto++
		} else {
			manual++
		}
	}
	if auto == 0 || manual == 0 {
		t.Fatal("timeline should mix automated and human steps (Figure 2)")
	}
}

func TestWorkflowKindString(t *testing.T) {
	if Economic.String() != "Economic" || Calibration.String() != "Calibration" {
		t.Fatal("kind names wrong")
	}
	if WorkflowKind(9).String() == "" {
		t.Fatal("unknown kind name empty")
	}
}

package fidelity

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// observation is one ABM-answered design point: the configuration and its
// per-series log1p curves, plus the metapop base curves at the same point
// (computed once, so refits never re-run the SEIR).
type observation struct {
	theta  [paramDim]float64
	curves map[string][]float64
	base   map[string][]float64
	// noise is the sampling noise of the curves themselves (the standard
	// error, in log1p space, of the replicate mean — worst day, worst
	// series). The emulator's declared band adds it in quadrature: a
	// surrogate cannot be more certain than the ABM statistic it imitates.
	noise float64
}

// maxObservations bounds a family's training set; beyond it the oldest
// design points roll off (the trained region follows the surviving points
// at the next refit).
const maxObservations = 128

// family is one config-family's training state: the accumulated ABM
// observations and the fitted surrogate snapshot serving reads.
type family struct {
	key   string
	proto Request // family-defining shape; Configs empty

	mu      sync.Mutex
	obs     []observation
	seen    map[string]int // theta fingerprint -> obs index
	pending int            // observations not yet reflected in snap
	fitting bool
	snap    *snapshot
}

// snapshot is an immutable fitted view: readers use it without holding the
// family lock. A family starts with an empty one (n 0, no tier fitted).
type snapshot struct {
	n    int
	emu  *emulator
	corr *correction
}

// emulator is the fitted GP tier for one family.
type emulator struct {
	n       int
	scaler  *gp.Scaler
	lo, hi  [paramDim]float64 // trained region (natural units)
	gps     map[string]*gp.MultiGP
	inflate map[string]float64 // LOO-CV variance calibration, ≥ 1
	noise   float64            // training-curve sampling noise floor (log1p SD)
}

// correction is the metapop tier's learned per-day delta (ABM − base, log1p
// space) and its empirical spread.
type correction struct {
	n     int
	delta map[string][]float64
	sd    map[string][]float64
	// err is the tier's 95% relative error estimate: max over series and
	// days of 2·sd, inflated for small n.
	err float64
}

func newFamily(key string, proto Request) *family {
	proto.Configs = nil
	proto.Mode = ""
	proto.MaxUncertainty = 0
	return &family{key: key, proto: proto, seen: map[string]int{}, snap: &snapshot{}}
}

// thetaKey fingerprints a design point for dedup.
func thetaKey(th [paramDim]float64) string {
	return fmt.Sprintf("%.9g,%.9g,%.9g,%.9g", th[0], th[1], th[2], th[3])
}

// add records an observation (replacing any prior observation at the same
// design point) and reports the new training-set size and pending count.
func (f *family) add(o observation) (n, pending int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := thetaKey(o.theta)
	if i, ok := f.seen[k]; ok {
		f.obs[i] = o
	} else {
		if len(f.obs) >= maxObservations {
			f.obs = f.obs[1:]
			f.seen = make(map[string]int, len(f.obs))
			for i := range f.obs {
				f.seen[thetaKey(f.obs[i].theta)] = i
			}
		}
		f.obs = append(f.obs, o)
		f.seen[k] = len(f.obs) - 1
	}
	f.pending++
	return len(f.obs), f.pending
}

// snapshotView returns the current fitted snapshot.
func (f *family) snapshotView() *snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap
}

// size reports the training-set size.
func (f *family) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.obs)
}

// cost approximates resident bytes for the castore bound: curves dominate
// (two map[string][]float64 per observation), plus the fitted Cholesky
// factors (n² per basis GP per series).
func (f *family) cost() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := len(f.proto.seriesNames())
	perObs := int64(2*names*f.proto.Days+paramDim) * 8
	c := int64(len(f.obs)) * perObs
	if f.snap.emu != nil {
		n := int64(f.snap.emu.n)
		c += n * n * 8 * 5 * int64(names)
	}
	return c
}

// minCorrection is the smallest training set the metapop delta correction
// fits on; below it the tier serves uncorrected with a conservative error.
const minCorrection = 3

// refit fits fresh snapshots from the current observations (outside the
// family lock — fitting is the expensive step) until fewer than maxStale
// observations are pending, and reports the fits made and failed. minFit
// gates the emulator; the correction fits from minCorrection points. A
// call that finds a refit running returns at once with no fits: the
// running refit checks the staleness bound again when it finishes.
func (f *family) refit(minFit, maxStale int) (fits, failed int) {
	f.mu.Lock()
	if f.fitting {
		f.mu.Unlock()
		return 0, 0
	}
	f.fitting = true
	for {
		obs := append([]observation(nil), f.obs...)
		names := f.proto.seriesNames()
		days := f.proto.Days
		pendingAtCopy := f.pending
		f.mu.Unlock()

		snap := &snapshot{n: len(obs)}
		var err error
		if len(obs) >= minCorrection {
			snap.corr = fitCorrection(names, days, obs)
		}
		if len(obs) >= minFit {
			snap.emu, err = fitEmulator(names, days, obs)
			if err != nil {
				snap.emu = nil // degenerate design: keep serving the correction
			}
		}

		f.mu.Lock()
		f.snap = snap
		f.pending -= pendingAtCopy
		if err != nil {
			failed++
		} else {
			fits++
		}
		if f.pending < maxStale {
			f.fitting = false
			f.mu.Unlock()
			return fits, failed
		}
	}
}

// fitCorrection estimates the per-day delta between ABM curves and metapop
// base curves.
func fitCorrection(names []string, days int, obs []observation) *correction {
	c := &correction{n: len(obs), delta: map[string][]float64{}, sd: map[string][]float64{}}
	worst := 0.0
	for _, name := range names {
		delta := make([]float64, days)
		sd := make([]float64, days)
		for d := 0; d < days; d++ {
			var sum float64
			for i := range obs {
				sum += obs[i].curves[name][d] - obs[i].base[name][d]
			}
			mean := sum / float64(len(obs))
			var ss float64
			for i := range obs {
				r := (obs[i].curves[name][d] - obs[i].base[name][d]) - mean
				ss += r * r
			}
			delta[d] = mean
			sd[d] = math.Sqrt(ss / float64(len(obs)-1))
			if u := 2 * sd[d]; u > worst {
				worst = u
			}
		}
		c.delta[name] = delta
		c.sd[name] = sd
	}
	// Small-sample inflation: the sd of n points understates the error a
	// new point will see by ~sqrt(1+1/n).
	c.err = worst * math.Sqrt(1+1/float64(c.n))
	return c
}

// fitEmulator fits one MultiGP per series over the observations' design
// points, with a LOO-CV variance calibration per series.
func fitEmulator(names []string, days int, obs []observation) (*emulator, error) {
	n := len(obs)
	e := &emulator{n: n, gps: map[string]*gp.MultiGP{}, inflate: map[string]float64{}}
	for k := 0; k < paramDim; k++ {
		e.lo[k], e.hi[k] = math.Inf(1), math.Inf(-1)
	}
	for i := range obs {
		for k := 0; k < paramDim; k++ {
			e.lo[k] = math.Min(e.lo[k], obs[i].theta[k])
			e.hi[k] = math.Max(e.hi[k], obs[i].theta[k])
		}
		e.noise = math.Max(e.noise, obs[i].noise)
	}
	scaler, err := gp.NewScaler(e.lo[:], e.hi[:])
	if err != nil {
		return nil, err
	}
	e.scaler = scaler
	x := make([][]float64, n)
	for i := range obs {
		x[i] = scaler.ToUnit(obs[i].theta[:])
	}
	for _, name := range names {
		y := linalg.NewMatrix(n, days)
		for i := range obs {
			for d, v := range obs[i].curves[name] {
				y.Set(i, d, v)
			}
		}
		numBasis := 5
		if numBasis > n-1 {
			numBasis = n - 1
		}
		mg, err := gp.FitMulti(x, y, numBasis)
		if err != nil {
			return nil, fmt.Errorf("fidelity: series %q: %w", name, err)
		}
		e.gps[name] = mg
		e.inflate[name] = looInflation(mg, days)
	}
	return e, nil
}

// looSafety pads the leave-one-out calibration: held-out queries sit
// slightly farther from the design than LOO points do on average.
const looSafety = 1.2

// looInflation calibrates the emulator's declared uncertainty against its
// own leave-one-out residuals, in curve space and at the exact statistic
// the router declares (worst day of the ±2 SD band): for each design point,
// the LOO curve deviation is the basis image of the per-weight LOO
// residuals (internal/gp/loocv.go) and the LOO band is the basis image of
// the per-weight LOO variances plus the off-basis residual variance. The
// inflation is the worst ratio of deviation bound to declared bound across
// design points, clamped ≥ 1 so a lucky fit never shrinks the band, times a
// safety factor.
func looInflation(mg *gp.MultiGP, days int) float64 {
	if len(mg.GPs) == 0 {
		return 1
	}
	n := len(mg.GPs[0].X)
	res := make([][]float64, len(mg.GPs))
	vars := make([][]float64, len(mg.GPs))
	for k, g := range mg.GPs {
		rk, vk, err := g.LOOCV()
		if err != nil {
			return looSafety * 2 // cannot calibrate: be conservative
		}
		res[k], vars[k] = rk, vk
	}
	worst := 1.0
	for i := 0; i < n; i++ {
		var dev, bound float64
		for d := 0; d < days; d++ {
			var md, vd float64
			row := mg.Basis.Data[d*mg.Basis.Cols : d*mg.Basis.Cols+len(mg.GPs)]
			for k, b := range row {
				md += b * res[k][i]
				vd += b * b * vars[k][i]
			}
			vd += mg.ResidVar[d]
			if a := math.Abs(md); a > dev {
				dev = a
			}
			if b := 2 * math.Sqrt(math.Max(vd, 1e-18)); b > bound {
				bound = b
			}
		}
		if bound > 0 && dev/bound > worst {
			worst = dev / bound
		}
	}
	return looSafety * worst
}

// regionMargin is the slack, as a fraction of each dimension's trained
// span, allowed before a configuration counts as outside the region.
const regionMargin = 0.05

// inRegion reports whether a configuration lies inside the trained region.
func (e *emulator) inRegion(th [paramDim]float64) bool {
	for k := 0; k < paramDim; k++ {
		span := e.hi[k] - e.lo[k]
		tol := regionMargin * span
		if span == 0 {
			tol = 1e-9
		}
		if th[k] < e.lo[k]-tol || th[k] > e.hi[k]+tol {
			return false
		}
	}
	return true
}

// predictConfig returns one series' mean and calibrated SD curves (log1p
// space) at a configuration.
func (e *emulator) predictConfig(name string, th [paramDim]float64, buf *gp.MultiBuf, mean, sd []float64) {
	mg := e.gps[name]
	mg.PredictInto(e.scaler.ToUnit(th[:]), mean, sd, buf)
	inf := e.inflate[name]
	for d := range sd {
		gpSD := math.Sqrt(math.Max(0, sd[d])) * inf
		sd[d] = math.Hypot(gpSD, e.noise)
	}
}

// emulate answers a request from the fitted emulator: per-series bands
// across the requested configurations and the worst-case uncertainty. The
// mean and SD curves of every series share one slab, since band copies out
// what it serves.
func (e *emulator) emulate(req Request) (*Answer, float64) {
	names := req.seriesNames()
	buf := e.gps[names[0]].NewBuf()
	ans := &Answer{Series: map[string]core.Forecast{}}
	uncertainty := 0.0
	n := len(req.Configs)
	slab := make([]float64, 2*n*req.Days)
	curves := make([][]float64, 2*n)
	for c := range curves {
		curves[c] = slab[c*req.Days : (c+1)*req.Days]
	}
	means, sds := curves[:n], curves[n:]
	for _, name := range names {
		for c, pr := range req.Configs {
			e.predictConfig(name, theta(pr), buf, means[c], sds[c])
			for _, sd := range sds[c] {
				if u := 2 * sd; u > uncertainty {
					uncertainty = u
				}
			}
		}
		ans.Series[name] = band(means, sds)
	}
	return ans, uncertainty
}

// band turns one series' per-configuration log1p mean and SD curves into
// its served forecast: the median of the means and the ±2 SD envelope
// across the configurations, in natural units. Every served series is
// cumulative, so each curve is then projected onto the non-decreasing
// curves by a running max (which keeps Lo ≤ Median ≤ Hi).
func band(means, sds [][]float64) core.Forecast {
	days := len(means[0])
	f := core.Forecast{Median: make([]float64, days), Lo: make([]float64, days), Hi: make([]float64, days)}
	stats.EnsembleQuantiles(means, []float64{0.5}, f.Median)
	for d := 0; d < days; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for c := range means {
			lo = math.Min(lo, expm1Clamped(means[c][d]-2*sds[c][d]))
			hi = math.Max(hi, expm1Clamped(means[c][d]+2*sds[c][d]))
		}
		f.Median[d], f.Lo[d], f.Hi[d] = expm1Clamped(f.Median[d]), lo, hi
		if d > 0 {
			f.Median[d], f.Lo[d], f.Hi[d] = max(f.Median[d], f.Median[d-1]), max(lo, f.Lo[d-1]), max(hi, f.Hi[d-1])
		}
	}
	return f
}

// uncorrectedError is the metapop tier's declared uncertainty before any
// delta correction exists — deliberately conservative: an uncalibrated
// mechanistic surrogate should only be served when forced or under a very
// loose budget.
const uncorrectedError = 1.0

// metapopAnswer serves a request from the (possibly corrected) metapop
// tier. Curves come from the mapper; the correction snapshot may be nil.
func metapopAnswer(m *metapopMapper, req Request, corr *correction) (*Answer, float64, error) {
	names := req.seriesNames()
	uncertainty, sd := uncorrectedError, make([]float64, req.Days)
	for d := range sd {
		sd[d] = uncorrectedError / 2
	}
	if corr != nil {
		uncertainty = corr.err
	}
	means := make(map[string][][]float64, len(names))
	sds := make(map[string][][]float64, len(names))
	for _, pr := range req.Configs {
		base, err := m.baseCurves(req, pr)
		if err != nil {
			return nil, 0, err
		}
		for _, name := range names {
			curve, s := base[name], sd
			if corr != nil {
				curve, s = make([]float64, req.Days), corr.sd[name]
				for d := range curve {
					curve[d] = base[name][d] + corr.delta[name][d]
				}
			}
			means[name] = append(means[name], curve)
			sds[name] = append(sds[name], s)
		}
	}
	ans := &Answer{Series: map[string]core.Forecast{}, Counties: m.counties(req.State)}
	for _, name := range names {
		ans.Series[name] = band(means[name], sds[name])
	}
	return ans, uncertainty, nil
}

// harvest names one series to learn from an ABM outcome: the simulations
// that produced it and how to read its natural-unit curve off each.
type harvest struct {
	name    string
	sims    []*core.SimOutput
	extract func(*core.SimOutput) []float64
}

// seriesCells is one harvested series per config cell: the replicate-mean
// log1p curve, and its standard error (worst day) — the sampling noise of
// that statistic, zero for a cell with a single replicate.
type seriesCells struct {
	mean map[int][]float64
	se   map[int]float64
}

// cells computes the per-cell means in one pass over the simulations and
// their standard errors in a second.
func (h harvest) cells(days int) seriesCells {
	out := seriesCells{mean: map[int][]float64{}, se: map[int]float64{}}
	counts := map[int]int{}
	for _, s := range h.sims {
		acc, ok := out.mean[s.Job.Cell]
		if !ok {
			acc = make([]float64, days)
			out.mean[s.Job.Cell] = acc
		}
		series := h.extract(s)
		for d := 0; d < days && d < len(series); d++ {
			acc[d] += math.Log1p(math.Max(0, series[d]))
		}
		counts[s.Job.Cell]++
	}
	for cell, acc := range out.mean {
		for d := range acc {
			acc[d] /= float64(counts[cell])
		}
	}
	ss := map[int][]float64{}
	for _, s := range h.sims {
		acc, ok := ss[s.Job.Cell]
		if !ok {
			acc = make([]float64, days)
			ss[s.Job.Cell] = acc
		}
		series, mean := h.extract(s), out.mean[s.Job.Cell]
		for d := 0; d < days && d < len(series); d++ {
			r := math.Log1p(math.Max(0, series[d])) - mean[d]
			acc[d] += r * r
		}
	}
	for cell, acc := range ss {
		n := counts[cell]
		if n < 2 {
			continue // one replicate: no spread to estimate from
		}
		for _, v := range acc {
			// SE of the mean: sample variance (n−1 denominator) over n.
			if se := math.Sqrt(v / float64(n-1) / float64(n)); se > out.se[cell] {
				out.se[cell] = se
			}
		}
	}
	return out
}

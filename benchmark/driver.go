package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"corep/internal/disk"
)

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	seconds int
	quick   bool
	traced  bool
	outDir  string
}

// baseSeconds is what scale 1 is sized for on a 2-core 2.1 GHz host:
// four rounds of about 2.7 s, a third of one as warm-up and the rest of
// the run's time in set-ups and checks.
const baseSeconds = 8

func (c config) sizes() sizes {
	sz := sizes{scale: float64(c.seconds) / baseSeconds, rounds: 4, setups: 5}
	if c.quick {
		sz = sizes{scale: 1.0 / 20, rounds: 1, setups: 1}
	}
	if c.traced {
		// One untraced round is the baseline of the traced one.
		sz.rounds, sz.setups = 1, 1
	}
	return sz
}

// roundFigures is what one replay of the sequence measured.
type roundFigures struct {
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	BusySec    float64            `json:"busy_s"` // busiest client's time inside engine calls
	WallSec    float64            `json:"wall_s"`
	OpsPerS    float64            `json:"ops_per_s"`
	P50us      map[string]float64 `json:"p50_us"`
	P95us      map[string]float64 `json:"p95_us"`
	P99us      map[string]float64 `json:"p99_us"`
	MaxUs      float64            `json:"max_us"`
	Samples    map[string]int     `json:"samples"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint32             `json:"gc_cycles"`
	GCPauseNs  uint64             `json:"gc_pause_ns"`
	Windows    []windowFigures    `json:"windows"`
	counts     counters
}

// windowFigures is the timing of one stretch of consecutive ops of a
// round. The host this runs on changes speed in phases of seconds to
// minutes, so timings are taken per window and the quietest one reported.
type windowFigures struct {
	OpsPerS       float64 `json:"ops_per_s"`
	RetrieveMidUs float64 `json:"retrieve_mid_us"`
	Retrieves     int     `json:"retrieves"`
}

// A window is a twentieth of a round — 0.17 to 0.3 s at the pipeline's
// scale, long enough to hold two collector cycles and 75 retrieves on
// the slowest workload — and a new one starts every quarter window, so a
// round yields 77 overlapping windows.
const (
	windowsPerRound = 20
	windowSlide     = 4
)

// result is everything one workload run reports.
type result struct {
	Workload  string             `json:"workload"`
	Clients   int                `json:"clients"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	SetupsSec []float64          `json:"setups_s"`
	Rounds    []roundFigures     `json:"rounds"`
	Ledger    []ledgerRow        `json:"ledger,omitempty"`
	Note      string             `json:"note,omitempty"`
}

// runner replays one instance's sequence, round after round. Its
// latency buffers are sized once so that a round allocates nothing per
// op on the driver's side.
type runner struct {
	inst    instance
	clients int
	ks      []opKind
	lat     [][]int64 // per client, in op order
	merged  [numKinds][]int64
	busy    []int64
	failed  []int
}

func newRunner(inst instance) *runner {
	clients := inst.clients()
	r := &runner{inst: inst, clients: clients, ks: inst.kinds(),
		lat: make([][]int64, clients), busy: make([]int64, clients), failed: make([]int, clients)}
	var total [numKinds]int
	for _, k := range r.ks {
		total[k]++
	}
	for c := range r.lat {
		r.lat[c] = make([]int64, 0, (len(r.ks)+clients-1)/clients)
	}
	for k := range total {
		r.merged[k] = make([]int64, 0, total[k])
	}
	return r
}

var opSpanNames = [numKinds]string{"op.retrieve", "op.update", "op.checkpoint"}

// client is the closed loop of one client: the next op starts when the
// previous one has returned and been checked.
func (r *runner) client(c, n int, tr *tracer, parent int) {
	var busy int64
	failed := 0
	var prev counters
	if tr != nil {
		prev = r.inst.counters()
	}
	for i := c; i < n; i += r.clients {
		k := r.ks[i]
		id := 0
		if tr != nil {
			id = tr.begin(parent, opSpanNames[k])
		}
		t0 := time.Now()
		err := r.inst.exec(c, i)
		d := time.Since(t0).Nanoseconds()
		if tr != nil {
			now := r.inst.counters()
			delta := now.sub(prev)
			tr.end(id, 1, &delta)
			prev = now
		}
		r.lat[c] = append(r.lat[c], d)
		busy += d
		if err != nil || !r.inst.check(c, i) {
			failed++
		}
	}
	r.busy[c], r.failed[c] = busy, failed
}

// round replays the first n ops of the sequence. Everything but the
// clients' loops is outside the timed window.
func (r *runner) round(tr *tracer, n int) (roundFigures, error) {
	if err := r.inst.beginRound(); err != nil {
		return roundFigures{}, err
	}
	for c := range r.lat {
		r.lat[c] = r.lat[c][:0]
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := r.inst.counters()
	parent := 0
	if tr != nil {
		parent = tr.begin(0, "round")
	}
	start := time.Now()
	if r.clients == 1 {
		r.client(0, n, tr, parent)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < r.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r.client(c, n, tr, parent)
			}(c)
		}
		wg.Wait()
	}
	wall := time.Since(start)
	if tr != nil {
		tr.end(parent, int64(n), nil)
	}
	c1 := r.inst.counters()
	runtime.ReadMemStats(&m1)
	if err := r.inst.endRound(); err != nil {
		return roundFigures{}, err
	}

	f := roundFigures{
		Ops: n, WallSec: wall.Seconds(),
		P50us: map[string]float64{}, P95us: map[string]float64{}, P99us: map[string]float64{}, Samples: map[string]int{},
		Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles: m1.NumGC - m0.NumGC, GCPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		counts: c1.sub(c0),
	}
	var busiest int64
	for c := 0; c < r.clients; c++ {
		f.Failed += r.failed[c]
		if r.busy[c] > busiest {
			busiest = r.busy[c]
		}
	}
	f.BusySec = float64(busiest) / 1e9
	f.OpsPerS = float64(f.Ops) / f.BusySec
	f.Windows = r.windows(n)
	for k := range r.merged {
		r.merged[k] = r.merged[k][:0]
	}
	for i, k := range r.ks[:n] {
		r.merged[k] = append(r.merged[k], r.lat[i%r.clients][i/r.clients])
	}
	for k, m := range r.merged {
		if len(m) == 0 {
			continue
		}
		slices.Sort(m)
		name := kindNames[k]
		f.Samples[name] = len(m)
		f.P50us[name], f.P95us[name], f.P99us[name] = quantileUs(m, 0.50), quantileUs(m, 0.95), quantileUs(m, 0.99)
		if mx := float64(m[len(m)-1]) / 1e3; mx > f.MaxUs {
			f.MaxUs = mx
		}
	}
	return f, nil
}

// windows slides a window over the round just run: throughput over the
// busiest client's time in the window, and the typical latency of the
// retrieves that fell into it.
func (r *runner) windows(n int) []windowFigures {
	cl := r.clients
	width := n / windowsPerRound
	step := width / windowSlide
	if step < 1 {
		width, step = n, n
	}
	var out []windowFigures
	scratch := r.merged[opRetrieve]
	for lo := 0; lo+width <= n; lo += step {
		hi := lo + width
		var busiest int64
		scratch = scratch[:0]
		for c := 0; c < cl; c++ {
			var busy int64
			for i := lo + ((c-lo)%cl+cl)%cl; i < hi; i += cl {
				d := r.lat[c][i/cl]
				busy += d
				if r.ks[i] == opRetrieve {
					scratch = append(scratch, d)
				}
			}
			if busy > busiest {
				busiest = busy
			}
		}
		if len(scratch) == 0 {
			continue
		}
		slices.Sort(scratch)
		out = append(out, windowFigures{
			OpsPerS:       float64(width) / (float64(busiest) / 1e9),
			RetrieveMidUs: midMeanUs(scratch),
			Retrieves:     len(scratch),
		})
	}
	return out
}

// midMeanUs is the interquartile mean of sorted nanosecond samples, in
// microseconds: the mean of the middle half. It stands in for the
// median as the typical latency because the median of serve_2c sits on
// a knee of its distribution (p40 230 us, p50 275-360 us, p60 370-450 us
// in rounds of one process) and jumps by a third with nothing changed;
// the mean of the middle half moves smoothly.
func midMeanUs(sorted []int64) float64 {
	a, b := len(sorted)/4, len(sorted)-len(sorted)/4
	var sum int64
	for _, v := range sorted[a:b] {
		sum += v
	}
	return float64(sum) / float64(b-a) / 1e3
}

// quantileUs is the nearest-rank quantile of sorted nanosecond samples,
// in microseconds.
func quantileUs(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs one workload once: timed set-ups, the control, a warm-up
// round, the measured rounds and, in a traced run, the traced round and
// the layer probes.
func measure(w workloadDef, cfg config) (*result, error) {
	sz := cfg.sizes()
	res := &result{Workload: w.name, Traced: cfg.traced, Note: w.note,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}

	// One processor per client: a second one would only run the
	// collector beside a single client, and on a shared two-core host
	// whether it is free is the largest noise there is (ten runs of
	// object_api spread 5 % with it and 2 % without). Set-ups have no
	// client and run on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Set up several times: one build is too short to time steadily.
	// The first build becomes the control's twin, the last is measured.
	var inst, twin instance
	for s := 0; s < sz.setups; s++ {
		runtime.GC()
		t0 := time.Now()
		built, err := w.setup(cfg.seed, sz, cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.SetupsSec = append(res.SetupsSec, time.Since(t0).Seconds())
		switch {
		case s == 0:
			twin = built
			inst = built
		case s == sz.setups-1:
			inst = built
		default:
			built.close()
		}
	}
	defer inst.close()
	err := inst.adopt(twin)
	if twin != inst {
		twin.close()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: control: %w", w.name, err)
	}

	res.Clients = inst.clients()
	runtime.GOMAXPROCS(res.Clients)
	r := newRunner(inst)
	// A third of the sequence fills the pool and the cache; the control
	// follows whatever prefix was replayed.
	warm, err := r.round(nil, (len(r.ks)+2)/3)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	res.Attempted, res.Failed = warm.Ops, warm.Failed
	for i := 0; i < sz.rounds; i++ {
		f, err := r.round(nil, len(r.ks))
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name, i+1, err)
		}
		res.Rounds = append(res.Rounds, f)
		res.Attempted += f.Ops
		res.Failed += f.Failed
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc) / (1 << 20)
	stored, user, err := inst.space()
	if err != nil {
		return nil, fmt.Errorf("%s: space: %w", w.name, err)
	}

	var tr *tracer
	var traced roundFigures
	if cfg.traced {
		tr = newTracer(w.name, len(r.ks)+4096)
		if traced, err = r.round(tr, len(r.ks)); err != nil {
			return nil, fmt.Errorf("%s: traced round: %w", w.name, err)
		}
		res.Attempted += traced.Ops
		res.Failed += traced.Failed
	}

	if err := inst.finish(res.PerLayer); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Failed += inst.stateFailures()
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0

	res.summarize(warm, liveHeap, stored, user)
	if cfg.traced {
		if err := runProbes(w, cfg, tr, res.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		res.attribute(tr, traced)
		if err := tr.write(filepath.Join(cfg.outDir, w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// best picks the reported timing among repeated measurements of the
// same work: the quietest one. Noise on a shared host only ever adds
// time, in phases that outlast a run, so the best window repeats from
// run to run where the median and even the better decile do not (see
// README.md for the spreads measured).
func best(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	if higherIsBetter {
		return slices.Max(v)
	}
	return slices.Min(v)
}

// summarize turns the measured rounds into the named metrics. The
// end-to-end timings are the best window of all rounds; counts and
// allocations are totals over the rounds divided by ops; the driver.*
// latencies are medians over rounds of pooled per-round percentiles.
func (res *result) summarize(warm roundFigures, liveHeapMB float64, stored, user int64) {
	var ops, retrieves, updates float64
	var mallocs, bytes, gcPause float64
	var gcCycles float64
	var tot counters
	var opsPerS, maxUs []float64
	per := map[string][]float64{}
	var winOps, winMid []float64
	for _, f := range res.Rounds {
		for _, w := range f.Windows {
			winOps = append(winOps, w.OpsPerS)
			winMid = append(winMid, w.RetrieveMidUs)
		}
		ops += float64(f.Ops)
		retrieves += float64(f.Samples["retrieve"])
		updates += float64(f.Samples["update"])
		mallocs += float64(f.Mallocs)
		bytes += float64(f.AllocBytes)
		gcCycles += float64(f.GCCycles)
		gcPause += float64(f.GCPauseNs)
		tot.add(f.counts)
		opsPerS = append(opsPerS, f.OpsPerS)
		maxUs = append(maxUs, f.MaxUs)
		for _, k := range []string{"retrieve", "update"} {
			if f.Samples[k] == 0 {
				continue
			}
			per[k+"_p50"] = append(per[k+"_p50"], f.P50us[k])
			per[k+"_p95"] = append(per[k+"_p95"], f.P95us[k])
			per[k+"_p99"] = append(per[k+"_p99"], f.P99us[k])
		}
	}
	cnt := func(id counterID) float64 { return float64(tot[id]) }

	e := res.EndToEnd
	e["setup_s"] = best(res.SetupsSec, false)
	e["ops_per_s"] = best(winOps, true)
	e["retrieve_mid_us"] = best(winMid, false)
	e["io_per_op"] = div(cnt(cDiskReads)+cnt(cDiskWrites), ops)
	e["allocs_per_op"] = div(mallocs, ops)
	e["alloc_kb_per_op"] = div(bytes/1024, ops)
	e["live_heap_mb"] = liveHeapMB
	e["space_amp"] = div(float64(stored), float64(user))

	p := res.PerLayer
	p["disk.reads_per_op"] = div(cnt(cDiskReads), ops)
	p["disk.writes_per_op"] = div(cnt(cDiskWrites), ops)
	p["disk.pages"] = float64(stored / disk.PageSize)
	p["buffer.pins_per_op"] = div(cnt(cPins), ops)
	p["buffer.hit_ratio"] = div(cnt(cHits), cnt(cHits)+cnt(cMisses))
	p["buffer.flushes_per_op"] = div(cnt(cFlushes), ops)
	p["buffer.retries"] = cnt(cRetries)
	lookups := cnt(cCacheHits) + cnt(cCacheMisses)
	p["cache.lookups_per_op"] = div(lookups, ops)
	p["cache.hit_ratio"] = div(cnt(cCacheHits), lookups)
	p["cache.inserts_per_op"] = div(cnt(cCacheInserts), ops)
	p["cache.evictions_per_op"] = div(cnt(cCacheEvictions), ops)
	p["cache.invalidations_per_update"] = div(cnt(cCacheInvalidations), updates)
	p["cache.stale_rejects"] = cnt(cCacheStale)
	p["strategy.par_io_per_retrieve"] = div(cnt(cParIO), retrieves)
	p["strategy.child_io_per_retrieve"] = div(cnt(cChildIO), retrieves)
	p["strategy.values_per_retrieve"] = div(cnt(cValues), retrieves)
	p["txn.commits"] = cnt(cTxnCommits)
	p["txn.latch_waits_per_commit"] = div(cnt(cTxnLatchWaits), cnt(cTxnCommits))
	p["txn.overlay_hits_per_retrieve"] = div(cnt(cTxnOverlayHits), retrieves)
	p["wal.page_images_per_commit"] = div(cnt(cWALPageImages), cnt(cWALCommits))
	p["wal.fsyncs_per_commit"] = div(cnt(cWALFsyncs), cnt(cWALCommits))
	p["wal.bytes_per_commit"] = div(cnt(cWALBytes), cnt(cWALCommits))
	p["driver.retrieve_p50_us"] = median(per["retrieve_p50"])
	p["driver.retrieve_p95_us"] = median(per["retrieve_p95"])
	p["driver.update_p50_us"] = median(per["update_p50"])
	p["driver.update_p95_us"] = median(per["update_p95"])
	p["driver.retrieve_p99_us"] = median(per["retrieve_p99"])
	p["driver.update_p99_us"] = median(per["update_p99"])
	p["driver.max_us"] = median(maxUs)
	lo, hi := opsPerS[0], opsPerS[0]
	for _, v := range opsPerS {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	p["driver.round_spread"] = div(hi-lo, median(opsPerS))
	p["driver.gc_cycles"] = gcCycles
	p["driver.gc_pause_ms"] = gcPause / 1e6
	p["driver.warmup_s"] = warm.WallSec
	p["driver.failed_ops_share"] = div(float64(res.Failed), float64(res.Attempted))
}

// Command perfbench is the dRBAC coalition benchmark. It builds a seeded
// coalition of wallet servers on loopback TCP inside one process, drives
// them with an open-loop Poisson schedule and then a closed-loop capacity
// phase over two client connections, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics measured
// by decorators around the servers' public interfaces). The last line of
// standard output is one JSON object; see BENCHMARK.json.
//
//	python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"drbac"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the coalition sees, measured with
// tracing off, and gated by BENCHMARK.json. Open-loop latencies (query,
// publish, revoke-to-push, discover) and closed-loop capacity are printed in
// every run's report, with their sample counts, but not gated: on a shared
// 2-vCPU host whole runs slow down when other tenants take the CPUs or the
// disk, and queueing amplifies that far beyond the largest bound the gate
// allows. CPU time per operation (steal is not charged to the process; see
// cpuPerOp) and memory hold steady.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer are measured in the traced run, by the benchmark's decorators
// and from the counters the program exposes.
var perLayer = []metricDef{
	{"e2e.capacity_ops_per_s", "1/s", "higher", 0},
	{"e2e.query_p50_us", "us", "lower", 0},
	{"e2e.query_p99_us", "us", "lower", 0},
	{"e2e.publish_p50_us", "us", "lower", 0},
	{"e2e.revoke_push_p50_us", "us", "lower", 0},
	{"e2e.discover_p50_us", "us", "lower", 0},
	{"remote.rpc_us.direct", "us", "lower", 0},
	{"remote.rpc_us.subject", "us", "lower", 0},
	{"remote.rpc_us.object", "us", "lower", 0},
	{"remote.rpc_us.publish", "us", "lower", 0},
	{"remote.rpc_us.revoke", "us", "lower", 0},
	{"remote.self_us.direct", "us", "lower", 0},
	{"remote.self_us.subject", "us", "lower", 0},
	{"remote.self_us.object", "us", "lower", 0},
	{"remote.self_us.publish", "us", "lower", 0},
	{"remote.self_us.revoke", "us", "lower", 0},
	{"remote.push_errors", "count", "lower", 0},
	{"transport.frames_per_op", "count", "lower", 0},
	{"transport.bytes_per_op", "B", "lower", 0},
	{"transport.send_us", "us", "lower", 0},
	{"transport.probe_bytes_per_op", "B", "lower", 0},
	{"runtime.cpu_us_per_op", "us", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cpu_fraction", "ratio", "lower", 0},
	{"wallet.query_us", "us", "lower", 0},
	{"wallet.publish_us", "us", "lower", 0},
	{"wallet.revoke_us", "us", "lower", 0},
	{"wallet.proofcache_hit_ratio", "ratio", "higher", 0},
	{"wallet.proofcache_invalidations_per_revoke", "count", "lower", 0},
	{"graph.edges_per_query", "count", "lower", 0},
	{"graph.nodes_per_query", "count", "lower", 0},
	{"graph.probe_edges_per_query", "count", "lower", 0},
	{"sigcache.hit_ratio", "ratio", "higher", 0},
	{"sigcache.misses_per_op", "count", "lower", 0},
	{"logstore.append_us", "us", "lower", 0},
	{"logstore.bytes_per_mutation", "B", "lower", 0},
	{"subs.pushes_per_revoke", "count", "lower", 0},
	{"replica.bootstrap_s", "s", "lower", 0},
	{"replica.append_us", "us", "lower", 0},
	{"replica.lag_seq_max", "count", "lower", 0},
	{"replica.resyncs", "count", "lower", 0},
	{"discovery.rounds_per_op", "count", "lower", 0},
	{"discovery.remote_queries_per_op", "count", "lower", 0},
	{"discovery.fetched_per_op", "count", "lower", 0},
	{"discovery.local_hit_ratio", "ratio", "higher", 0},
	{"discovery.home_wallet_us", "us", "lower", 0},
	{"peer.dials", "count", "lower", 0},
	{"peer.dial_us", "us", "lower", 0},
	{"cluster.gateway_us", "us", "lower", 0},
	{"cluster.shard_calls_per_op", "count", "lower", 0},
	{"gen.lag_p99_us", "us", "lower", 0},
	{"gen.inflight_max", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// runSeconds is how long one run measures, as BENCHMARK.json states.
const runSeconds = 25

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

func newManifest() manifest {
	m := manifest{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	return m
}

// lagLimit is the generator lateness (p99) beyond which a run's open-loop
// figures no longer describe the schedule: such a run is invalid, and
// exits non-zero without a result.
const lagLimit = 50 * time.Millisecond

var errInvalidRun = errors.New("invalid run")

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	setups  int
	inj     *injection
	tmp     string
	lag     time.Duration // lag limit; 0 means lagLimit
	commit  string
	out     io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	commit := fs.String("commit", "unknown", "source revision under test, for the report")
	manifest := fs.Bool("manifest", false, "print this benchmark's BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		raw, err := json.MarshalIndent(newManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(raw))
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o700); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: w.setups, tmp: tmp, commit: *commit, out: stdout}
	if cfg.trace {
		cfg.setups = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// snap is a cumulative reading of every counter the per-layer metrics are
// differences of.
type snap struct {
	cpu, user       time.Duration
	mallocs         uint64
	gcCPU, allCPU   float64
	cache           drbac.ProofCacheStats
	sig             drbac.SigCacheStats
	edges, nodes    int64
	pushErrors      int64
	storeBytes      int64
	t               tracerReading
	disc            [5]int64
	attempts, acked int64
}

type tracerReading struct {
	primary, homes, shards          [5][2]int64
	gateway, appendPrim, appendRepl [2]int64
	send                            [2]int64
	frames, bytes                   int64
}

func readTimer(t *timer) [2]int64 { return [2]int64{t.n.Load(), t.ns.Load()} }

func readWallet(w *walletTimers) [5][2]int64 {
	return [5][2]int64{readTimer(&w.direct), readTimer(&w.subject), readTimer(&w.object), readTimer(&w.publish), readTimer(&w.revoke)}
}

// cpuTime returns the process's total and user CPU time.
func cpuTime() (total, user time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), time.Duration(ru.Utime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func (r *runner) read() snap {
	s := r.s
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(sm)
	out := snap{
		mallocs: ms.Mallocs,
		gcCPU:   sm[0].Value.Float64(),
		allCPU:  sm[1].Value.Float64(),
		cache:   s.primary.Stats().Cache,
		sig:     s.sig.Stats(),
	}
	out.cpu, out.user = cpuTime()
	for k := opKind(0); k < nOps; k++ {
		out.attempts += r.attempts[k].Load()
	}
	c := s.primReg.Snapshot().Counters
	out.edges, out.nodes = c["drbac_search_edges_total"], c["drbac_search_nodes_total"]
	for _, sv := range s.servers {
		out.pushErrors += sv.reg.Snapshot().Counters["drbac_server_push_errors_total"]
	}
	out.storeBytes = dirBytes(s.primDir)
	r.revokedAt.Range(func(_, _ any) bool { out.acked++; return true })
	r.disc.mu.Lock()
	out.disc = [5]int64{r.disc.n, r.disc.rounds, r.disc.remote, r.disc.fetched, r.disc.hits}
	r.disc.mu.Unlock()
	if t := s.tr; t != nil {
		out.t = tracerReading{
			primary: readWallet(&t.primary), homes: readWallet(&t.homes), shards: readWallet(&t.shards),
			gateway: readTimer(&t.gateway), appendPrim: readTimer(&t.appends[storePrimary]),
			appendRepl: readTimer(&t.appends[storeReplica]),
			send:       readTimer(&t.send), frames: t.frames.Load(), bytes: t.sentBy.Load(),
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanUS(a, b [2]int64) float64 {
	return ratio(float64(b[1]-a[1]), float64(b[0]-a[0])) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func runBench(ctx context.Context, cfg config) (result, error) {
	w := cfg.w
	openFor := time.Duration(cfg.seconds * 0.7 * float64(time.Second))
	closedFor := time.Duration(cfg.seconds * 0.3 * float64(time.Second))
	pl := makePlan(w, cfg.seed, openFor, int(w.ceil*closedFor.Seconds()))
	tpl, err := newTemplates(cfg.tmp)
	if err != nil {
		return result{}, err
	}
	defer tpl.remove()
	chk, errs := &checker{}, &checker{}

	// The traced run first measures capacity on an untraced copy of the
	// system; the gap to its own traced capacity is the tracing overhead.
	var ref *runner
	var refCap float64
	if cfg.trace {
		s, err := setUp(ctx, w, cfg.seed, pl.pools, nil, cfg.inj, cfg.tmp, tpl)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		ref = &runner{s: s, chk: chk, errs: errs}
		refCap, _, _ = ref.capacity(ctx, pl.closed, closedFor)
		s.close()
		runtime.GC()
	}

	var sys *system
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		var tr *tracer
		if cfg.trace {
			tr = &tracer{}
		}
		start := time.Now()
		s, err := setUp(ctx, w, cfg.seed, pl.pools, tr, cfg.inj, cfg.tmp, tpl)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s.setupTime(start).Seconds())
		if i < cfg.setups-1 {
			s.close()
			runtime.GC()
			continue
		}
		sys = s
	}
	defer sys.close()
	if cfg.inj != nil {
		cfg.inj.armed.Store(true)
	}
	out := cfg.out
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v population=%s delegations=%d pairs=%d discover-pairs=%d\n",
		w.name, cfg.seed, cfg.trace, sys.pop.digest, len(sys.pop.stored)+len(sys.pop.revocable), len(sys.pop.queryPairs), len(sys.pop.discoverPairs))
	fmt.Fprintf(out, "set-up phases: %s (log templates, not timed: %.3fs)\n", strings.Join(sys.phases, " "), sys.untimed.Seconds())
	fmt.Fprintf(out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)

	r := &runner{s: sys, chk: chk, errs: errs, traced: cfg.trace}
	layer := map[string]float64{}
	if cfg.trace {
		probe(ctx, r, layer)
	}

	// Replica lag sampler.
	var lagMax atomic.Int64
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		if sys.follower == nil {
			return
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				lag := int64(sys.primary.Seq()) - int64(sys.follower.Status().AppliedSeq)
				if lag > lagMax.Load() {
					lagMax.Store(lag)
				}
			}
		}
	}()

	sys.monitors.record.Store(true)
	before := r.read()
	stopCPU := make(chan struct{})
	cpuPoints := make(chan []cpuPoint)
	go func() { cpuPoints <- r.sampleCPU(time.Second, stopCPU) }()
	openStart, openTook, err := r.openLoop(ctx, pl.open)
	close(stopCPU)
	cpuWin := cpuPerOp(<-cpuPoints)
	if err != nil {
		return result{}, fmt.Errorf("open loop: %w", err)
	}
	after := r.read()
	inflightMax := r.inflightMax.Load()
	sys.monitors.record.Store(false)

	capacity, slices, closedN := r.capacity(ctx, pl.closed, closedFor)
	r.finalChecks(ctx)
	close(stopLag)
	<-lagDone

	var attempted, failed int64
	for _, rr := range []*runner{ref, r} {
		for k := opKind(0); rr != nil && k < nOps; k++ {
			attempted += rr.attempts[k].Load()
			failed += rr.fails[k].Load()
		}
	}
	// Authorization queries are direct queries ("does S hold O?"); subject
	// and object queries are reported on their own.
	queries, listings := r.lat[opDirect].all(), append(r.lat[opSubject].all(), r.lat[opObject].all()...)
	pub, disc, push := r.lat[opPublish].all(), r.lat[opDiscover].all(), sys.monitors.lat.all()
	lag := sortedDurations(r.lag.all())
	win := func(v []sample, q float64) float64 { return windowed(v, openStart, openFor, q) }
	openOps := float64(after.attempts - before.attempts)
	e2e := map[string]float64{
		"setup_s":       median(setupS),
		"cpu_us_per_op": cpuWin.perOp,
		"max_rss_mb":    maxRSSMB(),
	}
	lagP99 := quantile(lag, 0.99)
	fmt.Fprintf(out, "open loop: %d ops in %.2fs at %.0f/s scheduled; generator lag p99 %.0fus, in flight max %d; process CPU user %.2fs system %.2fs\n",
		len(pl.open), openTook.Seconds(), w.rate, lagP99, inflightMax, (after.user - before.user).Seconds(), (after.cpu - before.cpu - after.user + before.user).Seconds())
	var invalid error
	limit := cmp.Or(cfg.lag, lagLimit)
	if lagP99 > float64(limit)/float64(time.Microsecond) {
		invalid = fmt.Errorf("%w: the generator fell behind its schedule (lag p99 %.0fus > %v)", errInvalidRun, lagP99, limit)
		fmt.Fprintln(out, "INVALID RUN:", invalid)
	}
	for _, row := range []struct {
		name string
		v    []sample
	}{{"query", queries}, {"subject+object", listings}, {"publish", pub}, {"revoke_push", push}, {"discover", disc}} {
		d := sortedDurations(row.v)
		fmt.Fprintf(out, "  %-14s n=%-7d p50=%8.1fus p90=%8.1fus p99=%8.1fus p999=%8.1fus over the phase; windowed p50=%.1fus p99=%.1fus\n", row.name, len(d),
			quantile(d, 0.5), quantile(d, 0.9), quantile(d, 0.99), quantile(d, 0.999), win(row.v, 0.5), win(row.v, 0.99))
	}
	fmt.Fprintf(out, "  cpu per op: collector %.1fus over the phase; outside it, by window: %.1f us\n", cpuWin.gc, cpuWin.mutator)
	fmt.Fprintf(out, "  capacity %.1f ops/s (upper quartile of %d closed-loop slices, %d ops)\n", capacity, slices, closedN)
	fmt.Fprintf(out, "  attempted=%d failed=%d fail_ratio=%.5f setups=%v\n", attempted, failed, ratio(float64(failed), float64(attempted)), setupS)

	if cfg.trace {
		layerMetrics(r, before, after, layer)
		layer["replica.lag_seq_max"] = float64(lagMax.Load())
		layer["gen.lag_p99_us"] = lagP99
		layer["gen.inflight_max"] = float64(inflightMax)
		overhead := (ratio(refCap, capacity) - 1) * 100
		layer["trace.overhead_pct"] = overhead
		layer["e2e.capacity_ops_per_s"] = refCap
		layer["e2e.query_p50_us"] = win(queries, 0.5)
		layer["e2e.query_p99_us"] = win(queries, 0.99)
		layer["e2e.publish_p50_us"] = win(pub, 0.5)
		layer["e2e.revoke_push_p50_us"] = win(push, 0.5)
		layer["e2e.discover_p50_us"] = win(disc, 0.5)
		fmt.Fprintf(out, "  capacity untraced %.1f ops/s, traced %.1f ops/s; tracing overhead %.1f%%\n", refCap, capacity, overhead)
	}

	res := result{Correct: chk.n == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, e2e
	if cfg.trace {
		defs, vals = perLayer, layer
	}
	counts := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups", len(setupS)),
		"cpu_us_per_op": fmt.Sprintf("lower quartile of %d one-second windows over %.0f open-loop ops; %.1fus over the phase", cpuWin.windows, openOps, ratio(float64(after.cpu-before.cpu)/1e3, openOps)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		fmt.Fprintf(out, "  %-44s %14.4f %-6s %s\n", d.Name, vals[d.Name], d.Unit, counts[d.Name])
	}
	for _, m := range errs.msg {
		fmt.Fprintln(out, "OPERATION FAILED:", m)
	}
	for _, m := range chk.msg {
		fmt.Fprintln(out, "CHECK FAILED:", m)
	}
	if chk.n > 0 {
		fmt.Fprintf(out, "%d correctness violations\n", chk.n)
	}
	return res, invalid
}

// cpuPoint is one reading of process CPU time, the garbage collector's
// share of it, and operations sent.
type cpuPoint struct {
	cpu, gc time.Duration
	ops     int64
}

// sampleCPU reads process CPU time and operations sent every interval
// until stop closes, and once more then.
func (r *runner) sampleCPU(every time.Duration, stop <-chan struct{}) []cpuPoint {
	read := func() cpuPoint {
		p := cpuPoint{gc: gcCPU()}
		p.cpu, _ = cpuTime()
		for k := opKind(0); k < nOps; k++ {
			p.ops += r.attempts[k].Load()
		}
		return p
	}
	pts := []cpuPoint{read()}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return append(pts, read())
		case <-tick.C:
			pts = append(pts, read())
		}
	}
}

type cpuWindows struct {
	perOp   float64   // microseconds
	windows int
	mutator []float64 // per window, microseconds per op outside the collector
	gc      float64   // microseconds per op in the collector, over the phase
}

// cpuPerOp is process CPU time per operation, in two parts. Steal is not
// charged to the process, but a neighbour that shares the CPUs' caches and
// memory still makes each operation cost more CPU while it runs, so the
// part outside the garbage collector is the lower quartile over the
// sampled windows, which reads the quieter stretches (as windowed does for
// latencies). Collections come every few seconds and each lands in one
// window, so the collector's part is its total over the phase per
// operation.
func cpuPerOp(pts []cpuPoint) cpuWindows {
	var per []float64
	last := len(pts) - 1
	for i := 1; i <= last; i++ {
		// A short tail window holds too few operations to weigh.
		if n := pts[i].ops - pts[i-1].ops; n > 0 && (i < last || len(per) == 0) {
			mutator := (pts[i].cpu - pts[i-1].cpu) - (pts[i].gc - pts[i-1].gc)
			per = append(per, float64(mutator)/1e3/float64(n))
		}
	}
	gc := ratio(float64(pts[last].gc-pts[0].gc)/1e3, float64(pts[last].ops-pts[0].ops))
	return cpuWindows{quartile(per, 0.25) + gc, len(per), per, gc}
}

// gcCPU is the runtime's estimate of the CPU time its collector has spent.
func gcCPU() time.Duration {
	sm := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sm)
	return time.Duration(sm[0].Value.Float64() * float64(time.Second))
}

// capacity runs the closed loop in half-second slices and returns the
// upper quartile of the slices' rates (see windowed for why), the number
// of slices and the number of ops taken from the list.
func (r *runner) capacity(ctx context.Context, ops []op, span time.Duration) (float64, int, int64) {
	var next atomic.Int64
	n := max(2, int(span/(time.Second/2)))
	var rates []float64
	for i := 0; i < n && next.Load() < int64(len(ops)); i++ {
		done, took := r.closedLoop(ctx, ops, &next, span/time.Duration(n))
		rates = append(rates, float64(done)/took.Seconds())
	}
	return quartile(rates, 0.75), len(rates), next.Load()
}

// probe runs a fixed sequence of subject queries on one connection before
// any traffic. Subject queries enumerate exhaustively and bypass the proof
// cache, so their search and wire counts depend on the seed alone.
func probe(ctx context.Context, r *runner, layer map[string]float64) {
	s := r.s
	n := min(100, len(s.pop.subjects))
	before := r.read()
	for i := 0; i < n; i++ {
		if _, err := s.conns[0].QuerySubject(ctx, s.pop.subjects[i], nil); err != nil {
			r.chk.fail("probe subject query: %v", err)
		}
	}
	after := r.read()
	layer["graph.probe_edges_per_query"] = ratio(float64(after.edges-before.edges), float64(n))
	layer["transport.probe_bytes_per_op"] = ratio(float64(after.t.bytes-before.t.bytes), float64(n))
}

func layerMetrics(r *runner, a, b snap, m map[string]float64) {
	// Per-op figures cover the open-loop phase.
	opsF := float64(b.attempts - a.attempts)
	for i, k := range []opKind{opDirect, opSubject, opObject, opPublish, opRevoke} {
		rpc := mean(sortedDurations(r.rpc[k].all()))
		wal := meanUS(a.t.primary[i], b.t.primary[i])
		m["remote.rpc_us."+opNames[k]] = rpc
		if rpc > 0 {
			m["remote.self_us."+opNames[k]] = rpc - wal
		}
	}
	m["remote.push_errors"] = float64(b.pushErrors - a.pushErrors)
	m["transport.frames_per_op"] = ratio(float64(b.t.frames-a.t.frames), opsF)
	m["transport.bytes_per_op"] = ratio(float64(b.t.bytes-a.t.bytes), opsF)
	m["transport.send_us"] = meanUS(a.t.send, b.t.send)
	m["runtime.cpu_us_per_op"] = ratio(float64(b.cpu-a.cpu)/1e3, opsF)
	m["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), opsF)
	m["runtime.gc_cpu_fraction"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU)
	m["wallet.query_us"] = meanUS(a.t.primary[0], b.t.primary[0])
	m["wallet.publish_us"] = meanUS(a.t.primary[3], b.t.primary[3])
	m["wallet.revoke_us"] = meanUS(a.t.primary[4], b.t.primary[4])
	hits, misses := float64(b.cache.Hits-a.cache.Hits), float64(b.cache.Misses-a.cache.Misses)
	m["wallet.proofcache_hit_ratio"] = ratio(hits, hits+misses)
	m["wallet.proofcache_invalidations_per_revoke"] = ratio(float64(b.cache.Invalidations-a.cache.Invalidations), float64(b.acked-a.acked))
	var queries int64
	for i := 0; i < 3; i++ {
		queries += b.t.primary[i][0] - a.t.primary[i][0]
	}
	m["graph.edges_per_query"] = ratio(float64(b.edges-a.edges), float64(queries))
	m["graph.nodes_per_query"] = ratio(float64(b.nodes-a.nodes), float64(queries))
	sh, sm := float64(b.sig.Hits-a.sig.Hits), float64(b.sig.Misses-a.sig.Misses)
	m["sigcache.hit_ratio"] = ratio(sh, sh+sm)
	m["sigcache.misses_per_op"] = ratio(sm, opsF)
	m["logstore.append_us"] = meanUS(a.t.appendPrim, b.t.appendPrim)
	m["replica.append_us"] = meanUS(a.t.appendRepl, b.t.appendRepl)
	m["logstore.bytes_per_mutation"] = ratio(float64(b.storeBytes-a.storeBytes), float64(b.t.appendPrim[0]-a.t.appendPrim[0]))
	mon := r.s.monitors
	mon.mu.Lock()
	var pushes int64
	for _, n := range mon.pushes {
		pushes += int64(n)
	}
	mon.mu.Unlock()
	var acked int64
	r.revokedAt.Range(func(_, _ any) bool { acked++; return true })
	m["subs.pushes_per_revoke"] = ratio(float64(pushes), float64(acked))
	if f := r.s.follower; f != nil {
		m["replica.bootstrap_s"] = r.s.bootstrap.Seconds()
		m["replica.resyncs"] = float64(f.Status().Resyncs)
	}
	dn := float64(b.disc[0] - a.disc[0])
	m["discovery.rounds_per_op"] = ratio(float64(b.disc[1]-a.disc[1]), dn)
	m["discovery.remote_queries_per_op"] = ratio(float64(b.disc[2]-a.disc[2]), dn)
	m["discovery.fetched_per_op"] = ratio(float64(b.disc[3]-a.disc[3]), dn)
	m["discovery.local_hit_ratio"] = ratio(float64(b.disc[4]-a.disc[4]), dn)
	var home [2]int64
	for i := range b.t.homes {
		home[0] += b.t.homes[i][0] - a.t.homes[i][0]
		home[1] += b.t.homes[i][1] - a.t.homes[i][1]
	}
	m["discovery.home_wallet_us"] = meanUS([2]int64{}, home)
	m["peer.dials"] = float64(r.s.tr.dials.n.Load())
	m["peer.dial_us"] = meanUS([2]int64{}, readTimer(&r.s.tr.dials))
	m["cluster.gateway_us"] = meanUS(a.t.gateway, b.t.gateway)
	var shardCalls int64
	for i := range b.t.shards {
		shardCalls += b.t.shards[i][0] - a.t.shards[i][0]
	}
	m["cluster.shard_calls_per_op"] = ratio(float64(shardCalls), float64(b.t.gateway[0]-a.t.gateway[0]))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

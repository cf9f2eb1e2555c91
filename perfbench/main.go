// Command perfbench is the repository's end-to-end benchmark. It drives the
// real cmd/server and cmd/router binaries, built from the working tree, over
// loopback with its own load generator, checks every workload's outputs
// against computations of its own, and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, from the same end-to-end phases plus an
// in-process traced replay of the workload. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's settings and working paths, all inside the
// checkout the benchmark runs from.
type env struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	nproc   int
	binDir  string
	runDir  string
	runTag  string
	hc      *http.Client
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: hot_read, cold_solve, write_mix, routed_mix")
	seed := flag.Int64("seed", 1, "seed of the generated catalog and operation sequence")
	seconds := flag.Int("seconds", 10, "measured seconds, split between the closed and sequential phases")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics (adds an in-process traced replay)")
	buildDir := flag.String("build-dir", ".bench_build", "directory holding bin/ and the run directories")
	flag.Parse()

	w := workloadByName(*workloadName)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workloadName, *seconds, *trace)
		os.Exit(2)
	}
	// Every exit path stops the serving processes: normal return, error,
	// panic and signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", s)
		os.Exit(1)
	}()
	res, err := func() (res *result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
			stopAll()
		}()
		e := &env{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: runtime.NumCPU()}
		e.binDir = filepath.Join(*buildDir, "bin")
		e.runDir = filepath.Join(*buildDir, "run-"+w.name)
		return e.run()
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// deployment is one launched serving topology.
type deployment struct {
	servers []*proc
	router  *proc
	entry   string
	// serverArgs are each server's command line, reused by the restart.
	serverArgs [][]string
}

func (d *deployment) procs() []*proc {
	out := append([]*proc(nil), d.servers...)
	if d.router != nil {
		out = append(out, d.router)
	}
	return out
}

func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.stop(5 * time.Second)
	}
}

// launch starts the workload's serving processes and returns once every
// /readyz reports ok, with the time that took. Servers start together; the
// router starts once its replicas are ready, as it would be deployed.
func (e *env) launch(ctx context.Context, boot int, dataDir string) (*deployment, time.Duration, error) {
	nServers := 1
	if e.w.routed {
		nServers = 2
	}
	d := &deployment{}
	for i := 0; i < nServers; i++ {
		args := []string{"-data", dataDir, "-drain", "2s"}
		if e.w.mutlog {
			store := filepath.Join(e.runDir, fmt.Sprintf("store-%d-%d.cslg", boot, i))
			if err := os.Remove(store); err != nil && !os.IsNotExist(err) {
				return nil, 0, err
			}
			args = append(args, "-store", store, "-mutlog")
		}
		if e.w.routed {
			args = append(args, "-serve-snapshot")
		}
		d.serverArgs = append(d.serverArgs, args)
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	start := time.Now()
	for i, args := range d.serverArgs {
		p, err := startProc(fmt.Sprintf("server%d", i), filepath.Join(e.binDir, "server"),
			filepath.Join(e.runDir, fmt.Sprintf("server%d.log", i)), args...)
		if err != nil {
			return nil, 0, err
		}
		d.servers = append(d.servers, p)
	}
	for _, p := range d.servers {
		if err := waitReady(ctx, e.hc, p); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	d.entry = d.servers[0].base
	if e.w.routed {
		backends := d.servers[0].base + "," + d.servers[1].base
		// Hedging stays off: a hedged read cancels the losing worker's
		// flight, and a later read of the same key can join that flight
		// before it ends and fail with 499 (see README.md).
		p, err := startProc("router", filepath.Join(e.binDir, "router"),
			filepath.Join(e.runDir, "router.log"), "-backends", backends, "-drain", "2s", "-hedge-disabled")
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.router = p
		if err := waitReady(ctx, e.hc, p); err != nil {
			d.stop()
			return nil, 0, err
		}
		d.entry = p.base
	}
	return d, time.Since(start), nil
}

// phaseVars reads /debug/vars of every serving process.
func (e *env) phaseVars(ctx context.Context, d *deployment) ([]*vars, error) {
	var out []*vars
	for _, p := range d.procs() {
		v, err := readVars(ctx, e.hc, p.base)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (e *env) cpuTotal(d *deployment) (float64, error) {
	var total float64
	for _, p := range d.procs() {
		s, err := cpuSeconds(p.pid())
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (e *env) run() (*result, error) {
	ctx := context.Background()
	if err := os.RemoveAll(e.runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	for _, bin := range []string{"server", "router"} {
		if _, err := os.Stat(filepath.Join(e.binDir, bin)); err != nil {
			return nil, fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	e.hc = newHTTPClient(e.nproc)
	// Review IDs carry the seed and a fixed-width tag unique to this run.
	e.runTag = strconv.FormatInt(e.seed, 36) + "-" + fmt.Sprintf("%08s", strconv.FormatInt(time.Now().UnixNano()%2821109907456, 36))

	dataDir := filepath.Join(e.runDir, "data")
	paths, err := writeCatalog(dataDir, e.seed, e.w.scale, e.w.alsoBought)
	if err != nil {
		return nil, err
	}
	ref, err := loadRefCatalog(paths)
	if err != nil {
		return nil, err
	}
	seq, err := buildSequence(e.w, ref, e.seed, e.runTag, e.seconds)
	if err != nil {
		return nil, err
	}

	// Set-up: boot the deployment several times and keep the last one.
	nBoots := boots
	if e.trace {
		nBoots = 1
	}
	var setups []float64
	var dep *deployment
	for b := 0; b < nBoots; b++ {
		d, took, err := e.launch(ctx, b, dataDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if b < nBoots-1 {
			d.stop()
		} else {
			dep = d
		}
	}
	defer dep.stop()

	tl := newTally()
	ldr := &loader{hc: e.hc, base: dep.entry, tally: tl, turn: newTurnstile()}
	var acked []*op
	ldr.onAck = func(o *op) { acked = append(acked, o) } // writes complete one at a time

	// The warm pass prepares the caches and is not measured. Its length is
	// the load's distinct keys, which vary with the seed, so its reads are
	// not counted in attempted; any failure among them aborts the run.
	warm := newTally()
	(&loader{hc: e.hc, base: dep.entry, tally: warm}).closedLoop(ctx, seq.warm, e.nproc)
	if _, failed := warm.totals(); failed > 0 {
		return nil, fmt.Errorf("warm pass failed: %s", warm.firstErr)
	}
	before, err := e.phaseVars(ctx, dep)
	if err != nil {
		return nil, err
	}
	// The closed and sequential phases run as alternating equal blocks, so
	// a burst of interference from outside touches a minority of blocks.
	// Each block records the steal /proc/stat counted during it; the
	// reported throughput and latencies are medians over the blocks of each
	// phase whose steal was at most that phase's median (every block, when
	// the machine was quiet throughout).
	var rates, p50s, p90s, w50s, closedSteal, serialSteal []float64
	serial := &serialResult{}
	var steal float64
	cpu0, err := e.cpuTotal(dep)
	if err != nil {
		return nil, err
	}
	gen0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	for b := 0; b < phaseBlocks; b++ {
		// A closed block keeps both vCPUs busy, so time the hypervisor
		// gave to other guests (steal, summed over vCPUs) is capacity the
		// program never had: throughput counts the block's wall time less
		// its steal per vCPU.
		part := block(seq.closed, b)
		steal0 := stealSeconds()
		took := ldr.closedLoop(ctx, part, e.nproc).Seconds()
		stolen := stealSeconds() - steal0
		ran := math.Max(took-stolen/float64(e.nproc), took/10)
		rates = append(rates, float64(len(part))/ran)
		closedSteal = append(closedSteal, stolen/took)
		steal += stolen

		part = block(seq.serial, b)
		steal0 = stealSeconds()
		blk := ldr.serialLoop(ctx, part)
		stolen = stealSeconds() - steal0
		p50s = append(p50s, quantile(blk.read, 0.5))
		p90s = append(p90s, quantile(blk.read, 0.9))
		w50s = append(w50s, quantile(blk.write, 0.5))
		serialSteal = append(serialSteal, stolen/blk.elapsed.Seconds())
		steal += stolen
		serial.read = append(serial.read, blk.read...)
		serial.write = append(serial.write, blk.write...)
		serial.elapsed += blk.elapsed
	}
	rates = quietBlocks(rates, closedSteal)
	p50s = quietBlocks(p50s, serialSteal)
	p90s = quietBlocks(p90s, serialSteal)
	w50s = quietBlocks(w50s, serialSteal)
	cpu1, err := e.cpuTotal(dep)
	if err != nil {
		return nil, err
	}
	gen1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	loadOps := float64(len(seq.closed) + len(seq.serial))
	cpuPerOp := (cpu1 - cpu0) * 1e6 / loadOps
	genPerOp := (gen1 - gen0) * 1e6 / loadOps
	after, err := e.phaseVars(ctx, dep)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, p := range dep.procs() {
		r, err := peakRSSMiB(p.pid())
		if err != nil {
			return nil, err
		}
		rss += r
	}
	if _, failed := tl.totals(); failed > 0 {
		return nil, fmt.Errorf("load operations failed: %s", tl.firstErr)
	}

	// The reference copy takes every acknowledged write, in order.
	for _, o := range acked {
		if err := ref[o.cat].apply(o); err != nil {
			return nil, err
		}
	}
	ver := &verifier{e: e, ref: ref, dep: dep, tally: tl}
	if err := ver.run(ctx, seq.verify); err != nil {
		return nil, err
	}
	correct := len(ver.problems) == 0
	for i, p := range ver.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(ver.problems)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	if e.w.readBack {
		if err := e.readBack(ctx, dep, acked, tl); err != nil {
			return nil, err
		}
	}
	dep.stop()

	for kind, n := range tl.attempted {
		fmt.Printf("ops %-6s attempted %6d failed %6d\n", kind, n, tl.failed[kind])
	}
	attempted, failed := tl.totals()
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !e.trace {
		sort.Float64s(setups)
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
		res.Metrics["throughput_rps"] = metric{quantile(rates, 0.5), "1/s"}
		res.Metrics["read_p50_ms"] = metric{quantile(p50s, 0.5), "ms"}
		res.Metrics["write_p50_ms"] = metric{quantile(w50s, 0.5), "ms"}
		res.Metrics["cpu_us_per_op"] = metric{cpuPerOp, "us"}
		res.Metrics["rss_mb"] = metric{rss, "MiB"}
		res.Metrics["objective_mean"] = metric{mean(ver.objectives), "objective"}
		res.Metrics["shortlist_weight_mean"] = metric{mean(ver.weights), "weight"}
		fmt.Printf("warm pass: %d reads, not counted in attempted\n", len(seq.warm))
		fmt.Printf("sequential phase: %d reads, %d writes in %.2fs; generator CPU %.1f us/op; machine steal %.2fs over both phases\n",
			len(serial.read), len(serial.write), serial.elapsed.Seconds(), genPerOp, steal)
		fmt.Printf("quiet blocks, sorted: throughput %.0f\nquiet blocks, sorted: read p50 %.3f\nquiet blocks, sorted: read p90 %.3f\n", rates, p50s, p90s)
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || m.Value <= 0 {
				return nil, fmt.Errorf("metric %s read %v", name, m.Value)
			}
		}
		return res, nil
	}
	layers, err := e.perLayer(before, after, dep, genPerOp, paths, seq)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

// quietBlocks returns the per-block figures of the blocks whose steal was
// at most the median block's.
func quietBlocks(figures, steal []float64) []float64 {
	limit := quantile(append([]float64(nil), steal...), 0.5)
	var out []float64
	for i, f := range figures {
		if steal[i] <= limit {
			out = append(out, f)
		}
	}
	return out
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comparesets/internal/cluster"
	"comparesets/internal/core"
	"comparesets/internal/featstore"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/opinion"
	"comparesets/internal/servecache"
	"comparesets/internal/service"
	"comparesets/internal/simgraph"
	"comparesets/internal/store"
)

// span is one timed interval of the traced replay. Spans of one operation
// share req; times are nanoseconds since the replay started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Leg    string `json:"leg"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count carries a per-span count (columns computed, NOMP paths).
	Count float64 `json:"count,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the replay ends. Operations run
// one at a time, so program counters and stage timers read before and
// after a call belong to that call alone.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	req    int
	leg    string
	parent int // span the worker middleware hangs its span under
	// inflight counts worker handlers still running; a worker finishes
	// its log line after the router already has the response.
	inflight atomic.Int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// reserve allocates a span slot so children can name it before it ends.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) set(id, parent int, name, attr string, start, end int64) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Parent, s.Req, s.Leg, s.Name, s.Attr, s.Start, s.End = parent, t.req, t.leg, name, attr, start, end
	return s
}

func (t *tracer) add(parent int, name, attr string, start, end int64) *span {
	return t.set(t.reserve(), parent, name, attr, start, end)
}

// stageNames are the program's obs stage timers the replay reads.
var stageNames = []string{obs.StageFeatureBuild, obs.StageNOMP, obs.StageNNLS, obs.StageSweep,
	obs.StageShortlist, obs.StageShortlistExact, obs.StageMutateApply, obs.StageRouterForward, obs.StageRouterEdge}

const (
	stFeature = iota
	stNOMP
	stNNLS
	stSweep
	stShortlist
	stExact
	stMutate
	stForward
	stEdge
)

// snap is one reading of the stage timers and the result-cache counters.
type snap struct {
	count      [9]uint64
	sum        [9]float64
	hits, miss uint64
}

var (
	cacheHits   = obs.Default().Counter("comparesets_cache_hits_total", "", obs.Labels{"cache": "servecache"})
	cacheMisses = obs.Default().Counter("comparesets_cache_misses_total", "", obs.Labels{"cache": "servecache"})
)

func readSnap() snap {
	var s snap
	for i, name := range stageNames {
		h := obs.StageHistogram(name)
		s.count[i], s.sum[i] = h.Count(), h.Sum()
	}
	s.hits, s.miss = cacheHits.Value(), cacheMisses.Value()
	return s
}

// delta returns the stage's added time in nanoseconds and executions.
func delta(a, b snap, st int) (int64, uint64) {
	return int64((b.sum[st] - a.sum[st]) * 1e9), b.count[st] - a.count[st]
}

// layout places stage children of known durations one after another from
// the parent's start, clipped to the parent: the timers give durations,
// and the stages named here run sequentially in this order.
func (t *tracer) layout(parent *span, pid int, names []string, durs []int64) []*span {
	cur := parent.Start
	var out []*span
	for i, d := range durs {
		if d <= 0 {
			out = append(out, nil)
			continue
		}
		end := cur + d
		if end > parent.End {
			end = parent.End
		}
		out = append(out, t.add(pid, names[i], "", cur, end))
		cur = end
	}
	return out
}

// serviceMiddleware wraps a worker's handler as the binary wraps it, with a
// span per request whose children come from the stage timers.
func (t *tracer) serviceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch {
		case r.URL.Path == "/api/v1/select":
			name = "service.select"
		case strings.HasPrefix(r.URL.Path, "/api/v1/corpora/"):
			name = "service.mutate"
		}
		// A request arriving once the router has answered (a late retry)
		// has no parent: the router no longer waits on it.
		t.mu.Lock()
		parent := t.parent
		traced := name != "" && parent != 0
		if traced {
			t.inflight.Add(1)
		}
		t.mu.Unlock()
		if !traced {
			next.ServeHTTP(w, r)
			return
		}
		defer t.inflight.Add(-1)
		a := readSnap()
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		b := readSnap()
		attr := ""
		if name == "service.select" {
			attr = "miss"
			if b.hits > a.hits {
				attr = "hit"
			}
		}
		id := t.reserve()
		s := t.set(id, parent, name, attr, start, end)
		if name == "service.mutate" {
			d, _ := delta(a, b, stMutate)
			t.layout(s, id, []string{"service.mutate_apply"}, []int64{d})
			return
		}
		fb, _ := delta(a, b, stFeature)
		sw, _ := delta(a, b, stSweep)
		sl, _ := delta(a, b, stShortlist)
		kids := t.layout(s, id, []string{"core.feature_build", "core.sweep", "simgraph.shortlist"}, []int64{fb, sw, sl})
		if ex, _ := delta(a, b, stExact); kids[2] != nil && ex > 0 {
			t.layout(kids[2], kids[2].ID, []string{"simgraph.exact"}, []int64{ex})
		}
	})
}

// requestLogger reproduces the binaries' request log line, written to a
// file in the run directory.
func requestLogger(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Print(fmt.Sprintf("%s %s %v", r.Method, r.URL.Path, time.Since(start)))
	})
}

// topo is an in-process deployment built the way the binaries build theirs.
type topo struct {
	entry   http.Handler
	routed  bool
	servers []*httptest.Server
	router  *cluster.Router
	stores  []*store.Store
}

func (tp *topo) close() {
	if tp.router != nil {
		tp.router.Stop()
	}
	for _, s := range tp.servers {
		s.Close()
	}
	for _, st := range tp.stores {
		_ = st.Close() // a replay's log is discarded with the run directory
	}
}

// buildTopo assembles the workload's topology in-process: one worker, or
// a router over two on routed workloads, over shared corpora. Mutations are
// copy-on-write, so the loaded corpora serve any number of independent
// topologies.
func (e *env) buildTopo(tag string, corpora map[string]*model.Corpus, tr *tracer, logger *log.Logger) (*topo, error) {
	routed := e.w.routed
	tp := &topo{routed: routed}
	workers := 1
	if routed {
		workers = 2
	}
	for i := 0; i < workers; i++ {
		opts := service.Options{}
		if e.w.mutlog {
			st, err := store.Open(filepath.Join(e.runDir, fmt.Sprintf("trace-%s-%d.cslg", tag, i)))
			if err != nil {
				return nil, err
			}
			tp.stores = append(tp.stores, st)
			for _, name := range sortedKeys(corpora) {
				if err := st.AppendCorpus(corpora[name]); err != nil {
					return nil, err
				}
			}
			opts.StoreProbe = st.Healthy
			opts.MutationLog = st
		}
		svc := service.NewWithOptions(corpora, logger, opts)
		var h http.Handler = svc.Handler()
		if routed {
			outer := http.NewServeMux()
			outer.Handle(cluster.SnapshotPathPrefix, cluster.SnapshotHandler(svc, logger))
			outer.Handle("/", h)
			h = outer
		}
		h = requestLogger(logger, h)
		if tr != nil {
			h = tr.serviceMiddleware(h)
		}
		if !routed {
			tp.entry = h
			return tp, nil
		}
		tp.servers = append(tp.servers, httptest.NewServer(h))
	}
	var backends []string
	for _, s := range tp.servers {
		backends = append(backends, s.URL)
	}
	// cmd/router's flag defaults, with hedging off as deployed.
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Backends:       backends,
		MaxRetries:     2,
		HedgeDisabled:  true,
		DefaultTimeout: 30 * time.Second,
		HealthInterval: 500 * time.Millisecond,
		Breaker:        cluster.BreakerConfig{ConsecutiveFailures: 5, ErrorRate: 0.5, Cooldown: 500 * time.Millisecond},
		RetryBudget:    cluster.RetryBudgetConfig{Tokens: 10, Ratio: 0.1},
		EdgeCacheBytes: cluster.DefaultEdgeCacheBytes,
		Registry:       obs.NewRegistry(),
		Logger:         logger,
	})
	if err != nil {
		return nil, err
	}
	tp.router = rt
	rt.Start()
	tp.entry = requestLogger(logger, rt.Handler())
	for deadline := time.Now().Add(10 * time.Second); ; {
		rec := httptest.NewRecorder()
		tp.entry.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if rec.Code == http.StatusOK && strings.Contains(rec.Body.String(), `"status":"ok"`) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("in-process router not ready: %s", rec.Body.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return tp, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// call sends one operation to the topology's entry handler in-process.
func (tp *topo) call(o *op) (int, []byte) {
	var body *bytes.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(o.method, o.path, body)
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	tp.entry.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// direct holds the benchmark's own instances of the layers, fed the same
// inputs as the program and timed call by call.
type direct struct {
	corpora  map[string]*model.Corpus
	feats    map[string]*featstore.Store
	problems map[string]*core.ProblemCache
	cache    *servecache.Cache
	gens     map[string]uint64
	store    *store.Store
	byKey    map[string]*graphMemo
}

// graphMemo mirrors the server's per-shape similarity-graph memo.
type graphMemo struct {
	builder *simgraph.Builder
	stats   []core.ItemStats
}

func toModelReview(r *refReview) *model.Review {
	out := &model.Review{ID: r.ID, ItemID: r.ItemID, Reviewer: r.Reviewer, Rating: r.Rating, Text: r.Text}
	for _, m := range r.Mentions {
		out.Mentions = append(out.Mentions, model.Mention{Aspect: m.Aspect, Polarity: model.Polarity(m.Polarity), Score: m.Score})
	}
	return out
}

// replayOut is what one replay leg measured.
type replayOut struct {
	ops      int
	wall     time.Duration
	directNs int64
}

// timed runs f inside a new span under parent and returns the span.
func (t *tracer) timed(parent int, name string, f func()) *span {
	id := t.reserve()
	start := t.now()
	f()
	return t.set(id, parent, name, "", start, t.now())
}

// coreSelect runs CompaReSetS+ directly on the benchmark's own feature
// store and problem cache, with its stage timers as children.
func (e *env) coreSelect(t *tracer, root int, d *direct, o *op, inst *model.Instance) (*core.Selection, core.Config) {
	cfg := core.Config{M: o.m, Lambda: reqLambda, Mu: reqMu, Features: d.feats[o.cat], Problems: d.problems[o.cat]}
	a := readSnap()
	id := t.reserve()
	start := t.now()
	sel, err := core.CompaReSetSPlus{}.Select(inst, cfg)
	end := t.now()
	b := readSnap()
	s := t.set(id, root, "core.select", "", start, end)
	_, paths := delta(a, b, stNOMP)
	s.Count = float64(paths)
	if err != nil {
		s.Attr = "error"
		return nil, cfg
	}
	fb, _ := delta(a, b, stFeature)
	sw, _ := delta(a, b, stSweep)
	t.layout(s, id, []string{"core.feature_build", "core.sweep"}, []int64{fb, sw})
	return sel, cfg
}

// graphFor builds or incrementally updates the memoized similarity graph
// of the read's shape, as the server does on a cache miss, and returns it.
// Rows that writes changed since the shape's last miss are updated here.
func (e *env) graphFor(t *tracer, root int, d *direct, o *op, inst *model.Instance, sel *core.Selection, cfg core.Config) *simgraph.Graph {
	stats := core.StatsForSets(inst, core.NewTargets(inst, cfg), cfg, sel.Reviews(inst))
	g := d.byKey[string(o.body)]
	if g == nil || len(g.stats) != len(stats) {
		g = &graphMemo{}
		t.timed(root, "simgraph.build", func() { g.builder = simgraph.NewBuilder(stats, cfg) })
		g.stats = stats
		d.byKey[string(o.body)] = g
		return g.builder.Graph()
	}
	var touched []int
	for i := range stats {
		if !sameStats(&g.stats[i], &stats[i]) {
			touched = append(touched, i)
		}
	}
	if len(touched) > 0 {
		t.timed(root, "simgraph.update", func() { g.builder.Update(stats, touched) })
	}
	g.stats = stats
	return g.builder.Graph()
}

func sameStats(a, b *core.ItemStats) bool {
	if a.OpinionLoss != b.OpinionLoss || a.AspectLoss != b.AspectLoss || len(a.Phi) != len(b.Phi) {
		return false
	}
	for i := range a.Phi {
		if a.Phi[i] != b.Phi[i] {
			return false
		}
	}
	return true
}

// cacheKey is the read's body plus the mutation generations of its
// instance members, so the benchmark's cache invalidates like the server's.
func (d *direct) cacheKey(o *op, inst *model.Instance) string {
	var b strings.Builder
	b.Write(o.body)
	for _, it := range inst.Items {
		if g := d.gens[o.cat+"\x00"+it.ID]; g > 0 {
			b.WriteString("|" + it.ID + "=" + strconv.FormatUint(g, 10))
		}
	}
	return b.String()
}

// directRead repeats a read's layer calls on the benchmark's own layer
// instances: instance resolve and cache lookup always, the solver stages
// only when the program itself missed its cache.
func (e *env) directRead(t *tracer, root int, d *direct, o *op, body []byte, missed bool) {
	c := d.corpora[o.cat]
	var inst *model.Instance
	t.timed(root, "model.new_instance", func() { inst, _ = c.NewInstance(o.item, 0) })
	if inst == nil {
		return
	}
	key := d.cacheKey(o, inst)
	var hit bool
	t.timed(root, "servecache.get", func() { _, hit = d.cache.Get(key) })
	if !hit {
		d.cache.Put(key, append([]byte(nil), body...))
	}
	if !missed {
		return
	}
	sel, cfg := e.coreSelect(t, root, d, o, inst)
	if sel == nil || o.body == nil || e.w.k == 0 {
		return
	}
	g := e.graphFor(t, root, d, o, inst, sel, cfg)
	t.timed(root, "simgraph.exact", func() {
		simgraph.Exact{Budget: 10 * time.Second}.SolveContext(context.Background(), g, e.w.k)
	})
}

// directWrite repeats an acknowledged write on the benchmark's own layer
// instances. Like the server, it selects nothing: the graph rows it changes
// are updated by the next read of an affected shape that misses.
func (e *env) directWrite(t *tracer, root int, d *direct, o *op) error {
	c := d.corpora[o.cat]
	var next *model.Corpus
	var m *model.Mutation
	var err error
	t.timed(root, "model.mutate", func() {
		next = c.Clone()
		switch o.kind {
		case opAppend:
			m, err = next.AppendReviews(o.item, toModelReview(o.review))
		case opUpdate:
			m, err = next.UpdateReview(o.item, toModelReview(o.review))
		case opRemove:
			m, err = next.RemoveReview(o.item, o.reviewID)
		}
	})
	if err != nil {
		return fmt.Errorf("direct %s on %s: %w", o.kind, o.item, err)
	}
	var aerr error
	t.timed(root, "store.append", func() { aerr = d.store.AppendMutation(m) })
	if aerr != nil {
		return aerr
	}
	var computed int
	s := t.timed(root, "featstore.apply", func() {
		computed, _ = d.feats[o.cat].Apply(next, m)
		d.problems[o.cat].InvalidateItem(m.Old)
	})
	s.Count = float64(computed)
	d.corpora[o.cat] = next
	d.gens[o.cat+"\x00"+o.item]++
	return nil
}

// replay sends ops one at a time through tp. With a tracer, every call gets
// a root span, the entry handler's span and the benchmark's direct layer
// calls; without one it only times the whole loop.
func (e *env) replay(tp *topo, ops []*op, t *tracer, d *direct, leg string, budget time.Duration, limit int) (*replayOut, error) {
	out := &replayOut{}
	start := time.Now()
	for i, o := range ops {
		if (limit > 0 && i >= limit) || (limit == 0 && time.Since(start) > budget) {
			break
		}
		out.ops++
		if t == nil {
			if code, _ := tp.call(o); code != http.StatusOK {
				return nil, fmt.Errorf("untraced replay: %s %s: status %d", o.method, o.path, code)
			}
			continue
		}
		t.mu.Lock()
		t.req++
		t.leg = leg
		t.mu.Unlock()
		root := t.reserve()
		rootStart := t.now()
		entryID := root
		if tp.routed {
			entryID = t.reserve()
		}
		t.mu.Lock()
		t.parent = entryID
		t.mu.Unlock()
		a := readSnap()
		es := t.now()
		code, body := tp.call(o)
		ee := t.now()
		t.mu.Lock()
		t.parent = 0
		t.mu.Unlock()
		// Let worker handlers of this operation finish, so none is
		// recorded under the next one.
		for wait := time.Now(); t.inflight.Load() > 0 && time.Since(wait) < time.Second; {
			time.Sleep(20 * time.Microsecond)
		}
		b := readSnap()
		if code != http.StatusOK {
			return nil, fmt.Errorf("traced replay: %s %s: status %d: %s", o.method, o.path, code, body)
		}
		missed := b.miss > a.miss
		if tp.routed {
			e.routeSpans(t, root, entryID, o, a, b, es, ee)
		}
		if d != nil {
			ds := t.now()
			if o.kind == opRead {
				e.directRead(t, root, d, o, body, missed)
			} else if err := e.directWrite(t, root, d, o); err != nil {
				return nil, err
			}
			out.directNs += t.now() - ds
		}
		name := "op." + o.kind.String()
		t.set(root, 0, name, "", rootStart, t.now())
	}
	out.wall = time.Since(start)
	return out, nil
}

// routeSpans records the router handler's span and its forward child,
// which encloses the worker spans the middleware recorded.
func (e *env) routeSpans(t *tracer, root, id int, o *op, a, b snap, start, end int64) {
	attr := "read"
	if o.kind != opRead {
		attr = "write"
	} else if b.count[stEdge] > a.count[stEdge] {
		attr = "edge_hit"
	}
	t.set(id, root, "cluster.route", attr, start, end)
	// A worker span runs on past the router's return (the worker logs its
	// request line after the response is sent); the exchange the router
	// waited for is the part inside the router span.
	t.mu.Lock()
	ws, we := end, start
	var kids []int
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == id && s.Req == t.req {
			kids = append(kids, s.ID)
			clipTree(t.spans, s.ID, start, end)
			ws, we = min(ws, s.Start), max(we, s.End)
		}
	}
	t.mu.Unlock()
	fwd, n := delta(a, b, stForward)
	if n == 0 || fwd <= 0 {
		return
	}
	fs, fe := start, start+fwd
	if len(kids) > 0 {
		fs = max(start, min(ws, we-fwd))
		fe = min(end, max(we, fs+fwd))
	}
	fe = min(fe, end)
	f := t.add(id, "cluster.forward", "", fs, fe)
	t.mu.Lock()
	for _, k := range kids {
		t.spans[k-1].Parent = f.ID
	}
	t.mu.Unlock()
}

// clipTree clips span id and its descendants to [lo, hi]. Spans are
// created in start order after their parents, so one forward pass suffices.
func clipTree(spans []span, id int, lo, hi int64) {
	in := map[int]bool{id: true}
	for i := id - 1; i < len(spans); i++ {
		s := &spans[i]
		if s.ID != id && !in[s.Parent] {
			continue
		}
		in[s.ID] = true
		s.Start = min(max(s.Start, lo), hi)
		s.End = min(max(s.End, s.Start), hi)
	}
}

// checkSpans verifies that every child lies inside its parent and that the
// self times of each operation's spans sum to its root span. Operations
// whose spans include concurrent siblings (a routed write's fan-out to both
// workers) are exempt from the sum, since overlapping time belongs to
// both; they are counted in concurrent.
func checkSpans(spans []span) (bad, concurrent int, firstErr string) {
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := selfTimes(spans)
	sum := map[int]int64{}
	rootDur := map[int]int64{}
	overlap := map[int]bool{}
	lastEnd := map[int]int64{} // per parent, in span start order below
	order := make([]*span, len(spans))
	for i := range spans {
		order[i] = &spans[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].Start < order[b].Start })
	for _, s := range order {
		if s.Parent == 0 {
			continue
		}
		if e, ok := lastEnd[s.Parent]; ok && s.Start < e {
			overlap[s.Req] = true
		}
		lastEnd[s.Parent] = max(lastEnd[s.Parent], s.End)
	}
	for i := range spans {
		s := &spans[i]
		sum[s.Req] += self[s.ID]
		if s.Parent == 0 {
			rootDur[s.Req] = s.dur()
			continue
		}
		p := byID[s.Parent]
		if p == nil || s.Start < p.Start || s.End > p.End || s.End < s.Start {
			bad++
			if firstErr == "" {
				firstErr = fmt.Sprintf("request %d span %d %s [%d,%d] outside parent %d", s.Req, s.ID, s.Name, s.Start, s.End, s.Parent)
			}
		}
	}
	for req, d := range rootDur {
		if overlap[req] {
			concurrent++
			continue
		}
		if sum[req] != d {
			bad++
			if firstErr == "" {
				firstErr = fmt.Sprintf("request %d: self times sum to %d ns, root is %d ns", req, sum[req], d)
			}
		}
	}
	return bad, concurrent, firstErr
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]*span{}
	for i := range spans {
		if spans[i].Parent != 0 {
			kids[spans[i].Parent] = append(kids[spans[i].Parent], &spans[i])
		}
	}
	out := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		var covered, cur int64 = 0, s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// traceRun loads the workload's inputs in-process, replays the operation
// sequence traced and untraced, writes the span file and the self-time
// table, and returns the per-layer timings.
func (e *env) traceRun(paths []string, seq *sequence) (map[string]metric, error) {
	logf, err := os.Create(filepath.Join(e.runDir, "trace-requests.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	logger := log.New(logf, "trace: ", log.LstdFlags)
	t := &tracer{t0: time.Now()}

	// Set-up layers: corpus load and feature precompute, once per category.
	t.req++
	t.leg = "setup"
	setupRoot := t.reserve()
	setupStart := t.now()
	corpora := map[string]*model.Corpus{}
	for _, p := range paths {
		var c *model.Corpus
		var lerr error
		t.timed(setupRoot, "model.load", func() { c, lerr = model.LoadCorpus(p) })
		if lerr != nil {
			return nil, lerr
		}
		t.timed(setupRoot, "featstore.precompute", func() { featstore.New(c).Precompute(opinion.Binary{}) })
		corpora[c.Category] = c
	}
	t.set(setupRoot, 0, "op.setup", "", setupStart, t.now())

	d := &direct{corpora: map[string]*model.Corpus{}, feats: map[string]*featstore.Store{},
		problems: map[string]*core.ProblemCache{}, gens: map[string]uint64{}, byKey: map[string]*graphMemo{},
		cache: servecache.New(service.DefaultCacheBytes, 0, obs.NewCacheMetrics(obs.NewRegistry(), "perfbench"))}
	for name, c := range corpora {
		d.corpora[name] = c
		d.feats[name] = featstore.New(c)
		d.problems[name] = core.NewProblemCache()
	}
	directLog := filepath.Join(e.runDir, "trace-direct.cslg")
	if d.store, err = store.Open(directLog); err != nil {
		return nil, err
	}
	defer d.store.Close()
	for _, name := range sortedKeys(corpora) {
		if err := d.store.AppendCorpus(corpora[name]); err != nil {
			return nil, err
		}
	}
	storeBase := storeSize(d.store, directLog)

	ops := append(append(append([]*op(nil), seq.warm...), seq.closed...), seq.serial...)
	budget := time.Duration(float64(e.seconds) * 0.4 * float64(time.Second))

	main, err := e.buildTopo("main", corpora, t, logger)
	if err != nil {
		return nil, err
	}
	// The warm pass is replayed whole, so the load finds the caches the
	// end-to-end run found; the load is replayed for the budget.
	traced, err := e.replay(main, seq.warm, t, d, "main", 0, len(seq.warm))
	if err == nil {
		var load *replayOut
		if load, err = e.replay(main, ops[len(seq.warm):], t, d, "main", budget, 0); err == nil {
			traced.ops += load.ops
			traced.wall += load.wall
			traced.directNs += load.directNs
		}
	}
	main.close()
	if err != nil {
		return nil, err
	}
	writes := 0
	for _, o := range ops[:traced.ops] {
		if o.kind != opRead {
			writes++
		}
	}
	bytesPerWrite := 0.0
	if writes > 0 {
		bytesPerWrite = float64(storeSize(d.store, directLog)-storeBase) / float64(writes)
	}

	// The same replay untraced, on fresh workers, gives the overhead.
	plain, err := e.buildTopo("plain", corpora, nil, logger)
	if err != nil {
		return nil, err
	}
	untraced, err := e.replay(plain, ops, nil, nil, "plain", 0, traced.ops)
	plain.close()
	if err != nil {
		return nil, err
	}

	spans := t.spans
	if err := writeSpans(filepath.Join(e.runDir, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	bad, concurrent, firstErr := checkSpans(spans)
	if bad > 0 {
		return nil, fmt.Errorf("%d span check failures; first: %s", bad, firstErr)
	}
	printSelfTable(e.w.name, spans)

	tracedNs := float64(traced.wall.Nanoseconds() - traced.directNs)
	overhead := (tracedNs/float64(untraced.wall.Nanoseconds()) - 1) * 100
	fmt.Printf("trace: %d ops replayed; traced %.3fs (%.3fs in direct layer calls), untraced %.3fs, overhead %.1f%%; %d ops with concurrent sibling spans\n",
		traced.ops, traced.wall.Seconds(), float64(traced.directNs)/1e9, untraced.wall.Seconds(), overhead, concurrent)

	agg := aggregate(spans)
	m := map[string]metric{
		"service.select_hit_us":       {agg.meanDur("main", "service.select", "hit") / 1e3, "us"},
		"service.select_miss_self_us": {agg.meanSelf("main", "service.select", "miss") / 1e3, "us"},
		"service.mutate_self_us":      {agg.meanSelf("main", "service.mutate", "") / 1e3, "us"},
		"servecache.get_ns":           {agg.meanDur("main", "servecache.get", ""), "ns"},
		"model.new_instance_us":       {agg.meanDur("main", "model.new_instance", "") / 1e3, "us"},
		"model.mutate_us":             {agg.meanDur("main", "model.mutate", "") / 1e3, "us"},
		"model.load_ms":               {agg.sumDur("setup", "model.load") / 1e6, "ms"},
		"featstore.precompute_ms":     {agg.sumDur("setup", "featstore.precompute") / 1e6, "ms"},
		"featstore.apply_us":          {agg.meanDur("main", "featstore.apply", "") / 1e3, "us"},
		"featstore.columns_computed":  {agg.meanCount("main", "featstore.apply"), "count"},
		"core.select_us":              {agg.meanDur("main", "core.select", "") / 1e3, "us"},
		"core.sweep_us":               {agg.meanDur("main", "core.sweep", "") / 1e3, "us"},
		"core.feature_build_us":       {agg.meanDur("main", "core.feature_build", "") / 1e3, "us"},
		"regress.solves_per_select":   {agg.meanCount("main", "core.select"), "count"},
		"simgraph.build_us":           {agg.meanDur("main", "simgraph.build", "") / 1e3, "us"},
		"simgraph.exact_us":           {agg.meanDur("main", "simgraph.exact", "") / 1e3, "us"},
		"simgraph.update_us":          {agg.meanDur("main", "simgraph.update", "") / 1e3, "us"},
		"store.append_us":             {agg.meanDur("main", "store.append", "") / 1e3, "us"},
		"store.bytes_per_write":       {bytesPerWrite, "bytes"},
		"cluster.edge_us":             {agg.meanDur("main", "cluster.route", "edge_hit") / 1e3, "us"},
		"cluster.forward_us":          {agg.meanDur("main", "cluster.forward", "") / 1e3, "us"},
		"cluster.write_fanout_us":     {agg.meanDur("main", "cluster.route", "write") / 1e3, "us"},
		"trace.overhead_pct":          {overhead, "%"},
	}
	return m, nil
}

// storeSize is the log's size on disk after a sync.
func storeSize(st *store.Store, path string) int64 {
	_ = st.Sync() // an unsynced size only makes bytes_per_write less exact
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanAgg indexes spans by leg and name for the per-layer metrics.
type spanAgg struct {
	spans []span
	self  map[int]int64
}

func aggregate(spans []span) *spanAgg {
	return &spanAgg{spans: spans, self: selfTimes(spans)}
}

func (a *spanAgg) each(leg, name, attr string, f func(s *span)) {
	for i := range a.spans {
		s := &a.spans[i]
		if s.Name == name && (leg == "" || s.Leg == leg) && (attr == "" || s.Attr == attr) {
			f(s)
		}
	}
}

func (a *spanAgg) meanDur(leg, name, attr string) float64 {
	var sum float64
	n := 0
	a.each(leg, name, attr, func(s *span) { sum += float64(s.dur()); n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (a *spanAgg) meanSelf(leg, name, attr string) float64 {
	var sum float64
	n := 0
	a.each(leg, name, attr, func(s *span) { sum += float64(a.self[s.ID]); n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (a *spanAgg) sumDur(leg, name string) float64 {
	var sum float64
	a.each(leg, name, "", func(s *span) { sum += float64(s.dur()) })
	return sum
}

func (a *spanAgg) meanCount(leg, name string) float64 {
	var sum float64
	n := 0
	a.each(leg, name, "", func(s *span) { sum += s.Count; n++ })
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// printSelfTable prints, per layer span name, how many spans the replay
// recorded and their total and self time.
func printSelfTable(workload string, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name       string
		n          int
		total, own int64
	}
	rows := map[string]*row{}
	for i := range spans {
		s := &spans[i]
		key := s.Leg + " " + s.Name
		r := rows[key]
		if r == nil {
			r = &row{name: key}
			rows[key] = r
		}
		r.n++
		r.total += s.dur()
		r.own += self[s.ID]
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].own > list[j].own })
	fmt.Printf("self-time table (%s): leg span count total_ms self_ms self_us_per_span\n", workload)
	for _, r := range list {
		fmt.Printf("  %-40s %7d %10.2f %10.2f %10.2f\n", r.name, r.n, float64(r.total)/1e6, float64(r.own)/1e6, float64(r.own)/1e3/float64(r.n))
	}
}

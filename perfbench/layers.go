package main

import (
	"encoding/json"
	"strings"
)

// Series of the program's metric registry read around the load phases.
const (
	cacheHitsSeries   = `comparesets_cache_hits_total{cache="servecache"}`
	cacheMissSeries   = `comparesets_cache_misses_total{cache="servecache"}`
	coalescedSeries   = `comparesets_cache_coalesced_waiters_total{cache="selectflight"}`
	edgeHits          = `comparesets_cache_hits_total{cache="router_edge"}`
	edgeMisses        = `comparesets_cache_misses_total{cache="router_edge"}`
	exploredSeries    = `comparesets_shortlist_nodes_total{event="explored"}`
	prunedSeries      = `comparesets_shortlist_nodes_total{event="pruned"}`
	exactSolvesSeries = `comparesets_pipeline_stage_duration_seconds{stage="shortlist_exact"}`
	nompSeries        = `comparesets_pipeline_stage_duration_seconds{stage="nomp"}`
	nnlsSeries        = `comparesets_pipeline_stage_duration_seconds{stage="nnls"}`
)

// flat turns one /debug/vars registry reading into series -> value, with a
// histogram series contributing "<series>#count" and "<series>#sum".
func (v *vars) flat() map[string]float64 {
	out := map[string]float64{}
	for k, raw := range v.Metrics {
		var n float64
		if json.Unmarshal(raw, &n) == nil {
			out[k] = n
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if json.Unmarshal(raw, &h) == nil {
			out[k+"#count"] = h.Count
			out[k+"#sum"] = h.Sum
		}
	}
	return out
}

// deltas sums after − before per series over the given processes.
func deltas(before, after []*vars, idx []int) map[string]float64 {
	out := map[string]float64{}
	for _, i := range idx {
		b, a := before[i].flat(), after[i].flat()
		for k, v := range a {
			out[k] += v - b[k]
		}
	}
	return out
}

func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && !strings.Contains(k[len(prefix):], "#") {
			s += v
		}
	}
	return s
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func perOp(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// perLayer assembles the per-layer metrics: counts from the program's own
// counters around the load phases, the generator's own CPU, and the
// timings of the in-process traced replay.
func (e *env) perLayer(before, after []*vars, dep *deployment, genPerOp float64, paths []string, seq *sequence) (map[string]metric, error) {
	var servers, all []int
	for i := range dep.servers {
		servers = append(servers, i)
		all = append(all, i)
	}
	srv := deltas(before, after, servers)
	m, err := e.traceRun(paths, seq)
	if err != nil {
		return nil, err
	}
	m["servecache.hit_ratio"] = metric{ratio(srv[cacheHitsSeries], srv[cacheMissSeries]), "ratio"}
	m["servecache.coalesced"] = metric{srv[coalescedSeries], "count"}
	solves := srv[exactSolvesSeries+"#count"]
	m["simgraph.nodes_explored"] = metric{perOp(srv[exploredSeries], solves), "count"}
	m["simgraph.nodes_pruned"] = metric{perOp(srv[prunedSeries], solves), "count"}
	m["regress.nomp_us"] = metric{perOp(srv[nompSeries+"#sum"], srv[nompSeries+"#count"]) * 1e6, "us"}
	m["regress.nnls_us"] = metric{perOp(srv[nnlsSeries+"#sum"], srv[nnlsSeries+"#count"]) * 1e6, "us"}
	// The cluster layer runs only behind the router (routed_mix); elsewhere
	// its figures read 0.
	m["cluster.edge_hit_ratio"] = metric{0, "ratio"}
	m["cluster.hedges"] = metric{0, "count"}
	m["cluster.retries"] = metric{0, "count"}
	if dep.router != nil {
		ri := len(dep.servers)
		all = append(all, ri)
		rt := deltas(before, after, []int{ri})
		m["cluster.edge_hit_ratio"] = metric{ratio(rt[edgeHits], rt[edgeMisses]), "ratio"}
		m["cluster.hedges"] = metric{sumPrefix(rt, "comparesets_router_hedges_total"), "count"}
		m["cluster.retries"] = metric{sumPrefix(rt, "comparesets_router_retries_total"), "count"}
	}
	var gcs, pause float64
	for _, i := range all {
		gcs += after[i].MemStats.NumGC - before[i].MemStats.NumGC
		pause += (after[i].MemStats.PauseTotalNs - before[i].MemStats.PauseTotalNs) / 1e6
	}
	m["runtime.gc_cycles"] = metric{gcs, "count"}
	m["runtime.gc_pause_ms"] = metric{pause, "ms"}
	m["generator.cpu_us_per_op"] = metric{genPerOp, "us"}
	return m, nil
}

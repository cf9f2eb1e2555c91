package main

// workload is one traffic mix against one deployment.
type workload struct {
	name string
	// catalog scales datagen's default categories: products and reviewers
	// are multiplied by scale; alsoBought > 0 overrides the mean
	// comparison-list length of every category.
	scale      float64
	alsoBought float64
	// routed puts cmd/router in front of two cmd/server replicas; mutlog
	// gives every server a -store log with -mutlog; readBack restarts the
	// server on its log after the load and probes every acknowledged write.
	routed, mutlog, readBack bool
	// zipf draws read targets and written items zipfian (exponent zipfS)
	// over every eligible target, after a warm pass over every key the load
	// reads; false makes every read a distinct (target, m) key. m is drawn
	// uniformly from ms.
	zipf bool
	ms   []int
	k    int
	// round is the repeating operation pattern; every phase is whole rounds.
	round []opKind
	// closedRate and serialRate size the closed and sequential phases
	// (about rate × share × seconds operations each); each is near the
	// workload's measured rate in that phase, so a phase lasts about its
	// share of --seconds.
	closedRate, serialRate float64
	// compareReads of the verification keys also get the comparisons
	// against CompaReSetS, the heuristic shortlists and (routed) a direct
	// replica.
	compareReads int
}

// Settings every workload shares.
const (
	// zipfS is cmd/loadgen's default popularity exponent: reads and writes
	// follow the same skew as the repo's own load generator.
	zipfS = 1.2
	// shortlistMethod is the TargetHkS solver every read asks for.
	shortlistMethod = "exact"
	// boots is how many times set-up runs; setup_s is their median.
	boots = 3
	// verifyReads keys get the objective and shortlist checks.
	verifyReads = 240
)

// Shares of --seconds given to the closed and sequential phases, and the
// number of equal blocks each phase is cut into; the blocks alternate and
// the reported throughput and latencies are medians over blocks.
const (
	closedShare = 0.4
	serialShare = 0.6
	phaseBlocks = 20
)

func repeat(kind opKind, n int) []opKind {
	out := make([]opKind, n)
	for i := range out {
		out[i] = kind
	}
	return out
}

var workloads = []*workload{
	{
		name:  "hot_read",
		scale: 10, zipf: true, ms: []int{3, 5}, k: 3,
		round:      append(repeat(opRead, 99), opAppend),
		closedRate: 7000, serialRate: 4000, compareReads: 40,
	},
	{
		name:  "cold_solve",
		scale: 5, alsoBought: 30, ms: []int{3, 5, 10}, k: 5,
		round:      append(repeat(opRead, 4), opAppend),
		closedRate: 650, serialRate: 340, compareReads: 20,
	},
	{
		name:  "write_mix",
		scale: 10, zipf: true, ms: []int{3, 5}, k: 3,
		mutlog: true, readBack: true,
		round:      append(repeat(opRead, 12), opAppend, opUpdate, opRemove),
		closedRate: 2400, serialRate: 1800, compareReads: 40,
	},
	{
		name:  "routed_mix",
		scale: 10, zipf: true, ms: []int{3, 5}, k: 3,
		routed: true, mutlog: true,
		round:      append(repeat(opRead, 24), opAppend),
		closedRate: 2100, serialRate: 1400, compareReads: 40,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

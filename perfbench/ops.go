package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
)

type opKind uint8

const (
	opRead opKind = iota
	opAppend
	opUpdate
	opRemove
	numKinds
)

var kindNames = [numKinds]string{"read", "append", "update", "remove"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload's fixed operation sequence.
type op struct {
	kind opKind
	cat  string
	// item is the read's target or the written item.
	item string
	m    int
	// review is the appended or updated content; reviewID the removed one.
	review   *refReview
	reviewID string
	// writeSeq numbers writes in sending order; -1 for reads.
	writeSeq int
	method   string
	path     string
	body     []byte
}

// Read request shape shared by every workload: Eq. 5 weights as in the
// repo's command-line defaults.
const (
	reqLambda = 1.0
	reqMu     = 0.1
)

type selectBody struct {
	Category  string  `json:"category"`
	Target    string  `json:"target"`
	Algorithm string  `json:"algorithm,omitempty"`
	M         int     `json:"m"`
	Lambda    float64 `json:"lambda"`
	Mu        float64 `json:"mu"`
	K         int     `json:"k,omitempty"`
	Method    string  `json:"method,omitempty"`
}

func readOp(cat, target string, m, k int, algorithm, method string) *op {
	body, _ := json.Marshal(selectBody{Category: cat, Target: target, Algorithm: algorithm,
		M: m, Lambda: reqLambda, Mu: reqMu, K: k, Method: method})
	return &op{kind: opRead, cat: cat, item: target, m: m, writeSeq: -1,
		method: "POST", path: "/api/v1/select", body: body}
}

func reviewsPath(cat, item string) string {
	return "/api/v1/corpora/" + url.PathEscape(cat) + "/items/" + url.PathEscape(item) + "/reviews"
}

// readKey is one distinct read: a target and a per-item budget m.
type readKey struct {
	cat, target string
	m           int
}

// sequence is a workload's whole operation list for one run.
type sequence struct {
	warm, closed, serial []*op
	verify               []readKey
}

// seqBuilder draws a workload's operations from one seeded source.
type seqBuilder struct {
	w      *workload
	rng    *rand.Rand
	ref    refCatalog
	runTag string
	keys   []readKey // distinct keys in order (non-zipf workloads)
	zipf   *rand.Zipf
	next   int // next distinct key (cold reads)
	// popular holds the targets writes go to: zipf ranks on zipf
	// workloads, drawn uniformly otherwise.
	popular []readKey
	// appended lists reviews appended in this run, for updates.
	appended []*op
	removed  map[string]int // item -> original reviews removed
	nReviews int
	origLen  map[string]int
}

// eligibleTargets lists every target whose instance has at least one
// comparison item, across categories in a fixed order.
func eligibleTargets(ref refCatalog) []readKey {
	var out []readKey
	for _, cat := range ref.categories() {
		c := ref[cat]
		for _, it := range c.Items {
			if len(c.instance(it.ID)) >= 2 {
				out = append(out, readKey{cat: cat, target: it.ID})
			}
		}
	}
	return out
}

func buildSequence(w *workload, ref refCatalog, seed int64, runTag string, seconds int) (*sequence, error) {
	b := &seqBuilder{w: w, rng: rand.New(rand.NewSource(seed)), ref: ref, runTag: runTag,
		removed: map[string]int{}, origLen: map[string]int{}}
	for _, cat := range ref.categories() {
		for _, it := range ref[cat].Items {
			b.origLen[cat+"\x00"+it.ID] = len(it.Reviews)
		}
	}
	targets := eligibleTargets(ref)
	b.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	seq := &sequence{}
	if w.zipf {
		// Zipf ranks over the shuffled targets, so popularity is not tied
		// to item IDs or categories. Like cmd/loadgen, every eligible target
		// is in the population.
		b.zipf = rand.NewZipf(b.rng, zipfS, 1, uint64(len(targets)-1))
		b.popular = targets
		// The verification pass reads the most popular targets, each m.
		for _, t := range targets[:verifyReads/len(w.ms)] {
			for _, m := range w.ms {
				seq.verify = append(seq.verify, readKey{cat: t.cat, target: t.target, m: m})
			}
		}
	} else {
		for _, t := range targets {
			for _, m := range w.ms {
				b.keys = append(b.keys, readKey{cat: t.cat, target: t.target, m: m})
			}
		}
		b.rng.Shuffle(len(b.keys), func(i, j int) { b.keys[i], b.keys[j] = b.keys[j], b.keys[i] })
		b.popular = targets[:len(targets)/4]
		// Verification keys are set aside first, so every load read stays
		// a distinct, never-cached request.
		seq.verify = append(seq.verify, b.keys[:verifyReads]...)
		b.next = verifyReads
	}
	nClosed := w.roundsFor(w.closedRate * closedShare * float64(seconds))
	nSerial := w.roundsFor(w.serialRate * serialShare * float64(seconds))
	var err error
	if seq.closed, err = b.rounds(nClosed); err != nil {
		return nil, err
	}
	if seq.serial, err = b.rounds(nSerial); err != nil {
		return nil, err
	}
	if w.zipf {
		// The warm pass reads every key the load reads once, so the load's
		// misses are the ones its writes cause.
		seen := map[readKey]bool{}
		for _, o := range append(append([]*op(nil), seq.closed...), seq.serial...) {
			k := readKey{cat: o.cat, target: o.item, m: o.m}
			if o.kind == opRead && !seen[k] {
				seen[k] = true
				seq.warm = append(seq.warm, b.read(k))
			}
		}
	}
	// Writes are numbered in execution order: closed and sequential blocks
	// alternate, and one logical sender sends them in that order.
	n := 0
	for b := 0; b < phaseBlocks; b++ {
		for _, ph := range [][]*op{block(seq.closed, b), block(seq.serial, b)} {
			for _, o := range ph {
				if o.kind != opRead {
					o.writeSeq = n
					n++
				}
			}
		}
	}
	return seq, nil
}

// block returns the b-th of phaseBlocks equal consecutive parts of ops.
func block(ops []*op, b int) []*op {
	return ops[b*len(ops)/phaseBlocks : (b+1)*len(ops)/phaseBlocks]
}

// roundsFor returns how many whole rounds cover about n operations (at
// least one), so every run attempts whole rounds of the same pattern.
func (w *workload) roundsFor(n float64) int {
	r := int(n/float64(len(w.round)) + 0.5)
	if r < 1 {
		r = 1
	}
	return r
}

func (b *seqBuilder) read(k readKey) *op {
	return readOp(k.cat, k.target, k.m, b.w.k, "", shortlistMethod)
}

func (b *seqBuilder) nextRead() (*op, error) {
	if b.zipf != nil {
		t := b.popularItem()
		return b.read(readKey{cat: t.cat, target: t.target, m: b.w.ms[b.rng.Intn(len(b.w.ms))]}), nil
	}
	if b.next >= len(b.keys) {
		return nil, fmt.Errorf("catalog has %d distinct read keys, workload needs more", len(b.keys))
	}
	k := b.keys[b.next]
	b.next++
	return b.read(k), nil
}

func (b *seqBuilder) rounds(n int) ([]*op, error) {
	var out []*op
	for r := 0; r < n; r++ {
		for _, kind := range b.w.round {
			var o *op
			var err error
			switch kind {
			case opRead:
				o, err = b.nextRead()
			case opAppend:
				o = b.appendOp()
			case opUpdate:
				o, err = b.updateOp()
			case opRemove:
				o, err = b.removeOp()
			}
			if err != nil {
				return nil, err
			}
			out = append(out, o)
		}
	}
	return out, nil
}

// newReview draws review content for an item of the category: a rating
// and one to three aspect opinions whose polarity leans with the rating.
func (b *seqBuilder) newReview(cat, item, id string) *refReview {
	z := len(b.ref[cat].Aspects)
	rating := 1 + b.rng.Intn(5)
	n := 1 + b.rng.Intn(3)
	aspects := b.rng.Perm(z)[:n]
	sort.Ints(aspects)
	r := &refReview{ID: id, ItemID: item, Reviewer: "perfbench", Rating: rating}
	text := "Benchmark review:"
	for _, a := range aspects {
		pol := polNegative
		if b.rng.Float64() < float64(rating)/5.5 {
			pol = polPositive
		}
		word := "poor"
		if pol == polPositive {
			word = "great"
		}
		text += " " + word + " " + b.ref[cat].Aspects[a] + "."
		r.Mentions = append(r.Mentions, refMention{Aspect: a, Polarity: pol, Score: 0.5})
		if pol == polNegative {
			r.Mentions[len(r.Mentions)-1].Score = -0.5
		}
	}
	r.Text = text
	return r
}

// popularItem draws a zipf-ranked target on zipf workloads and a uniform one
// of the popular quarter otherwise.
func (b *seqBuilder) popularItem() readKey {
	if b.zipf != nil {
		return b.popular[b.zipf.Uint64()]
	}
	return b.popular[b.rng.Intn(len(b.popular))]
}

func (b *seqBuilder) appendOp() *op {
	t := b.popularItem()
	id := "pb-" + b.runTag + "-" + strconv.Itoa(b.nReviews)
	b.nReviews++
	r := b.newReview(t.cat, t.target, id)
	body, _ := json.Marshal(struct {
		Reviews []*refReview `json:"reviews"`
	}{[]*refReview{r}})
	o := &op{kind: opAppend, cat: t.cat, item: t.target, review: r,
		method: "POST", path: reviewsPath(t.cat, t.target), body: body}
	b.appended = append(b.appended, o)
	return o
}

// updateOp rewrites the most recently appended review of this run.
func (b *seqBuilder) updateOp() (*op, error) {
	if len(b.appended) == 0 {
		return nil, fmt.Errorf("workload round updates before any append")
	}
	a := b.appended[len(b.appended)-1]
	r := b.newReview(a.cat, a.item, a.review.ID)
	body, _ := json.Marshal(r)
	return &op{kind: opUpdate, cat: a.cat, item: a.item, review: r,
		method: "PATCH", path: reviewsPath(a.cat, a.item) + "/" + url.PathEscape(r.ID), body: body}, nil
}

// removeOp removes an original review of a popular item, keeping at least
// half of every item's original reviews.
func (b *seqBuilder) removeOp() (*op, error) {
	for tries := 0; tries < 4*len(b.popular); tries++ {
		t := b.popularItem()
		key := t.cat + "\x00" + t.target
		gone := b.removed[key]
		orig := b.origLen[key]
		if orig-gone <= orig/2 || orig-gone <= 2 {
			continue
		}
		// Original reviews keep their file order; remove them front first.
		id := b.ref[t.cat].byID[t.target].Reviews[gone].ID
		b.removed[key] = gone + 1
		return &op{kind: opRemove, cat: t.cat, item: t.target, reviewID: id,
			method: "DELETE", path: reviewsPath(t.cat, t.target) + "/" + url.PathEscape(id)}, nil
	}
	return nil, fmt.Errorf("popular items have no removable reviews left")
}

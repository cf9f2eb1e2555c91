package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"time"
)

// served is the part of a select response the checks read.
type served struct {
	Algorithm string  `json:"algorithm"`
	Objective float64 `json:"objective"`
	Items     []struct {
		ID       string `json:"id"`
		IsTarget bool   `json:"is_target"`
		Reviews  []struct {
			ID     string `json:"id"`
			Rating int    `json:"rating"`
			Text   string `json:"text"`
		} `json:"reviews"`
	} `json:"items"`
	Shortlist       []int   `json:"shortlist"`
	ShortlistWeight float64 `json:"shortlist_weight"`
	Optimal         *bool   `json:"optimal"`
	Degraded        bool    `json:"degraded"`
}

// verifier runs the sequential verification pass after the load phases.
type verifier struct {
	e     *env
	ref   refCatalog
	dep   *deployment
	tally *tally
	// problems lists every failed check.
	problems   []string
	objectives []float64
	weights    []float64
}

func (v *verifier) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// selectOp sends one select to base and decodes it; status and transport
// failures are failed operations.
func (v *verifier) selectOp(ctx context.Context, base string, o *op) (*served, []byte, bool) {
	status, body, err := send(ctx, v.e.hc, base, o.method, o.path, o.body, true)
	if err != nil || status != http.StatusOK {
		v.tally.add("verify", false, fmt.Sprintf("%s %s: status %d %v", base, o.body, status, err))
		v.fail("select %s: status %d %v", o.body, status, err)
		return nil, nil, false
	}
	v.tally.add("verify", true, "")
	var s served
	if err := json.Unmarshal(body, &s); err != nil {
		v.fail("select %s: undecodable response: %v", o.body, err)
		return nil, nil, false
	}
	return &s, body, true
}

// sets checks the served items and reviews against the reference catalog
// and returns the served review sets: items in instance order, each review
// one of its item's current reviews with the acknowledged content, at most
// m per item, no duplicates.
func (v *verifier) sets(k readKey, s *served) ([]*refItem, [][]*refReview, bool) {
	c := v.ref[k.cat]
	items := c.instance(k.target)
	if len(s.Items) != len(items) {
		v.fail("%s/%s: %d items served, instance has %d", k.cat, k.target, len(s.Items), len(items))
		return nil, nil, false
	}
	sets := make([][]*refReview, len(items))
	ok := true
	for i, it := range s.Items {
		if it.ID != items[i].ID || it.IsTarget != (i == 0) {
			v.fail("%s/%s: item %d is %s (target %v), want %s", k.cat, k.target, i, it.ID, it.IsTarget, items[i].ID)
			return nil, nil, false
		}
		if len(it.Reviews) > k.m {
			v.fail("%s/%s: item %s has %d reviews, m=%d", k.cat, k.target, it.ID, len(it.Reviews), k.m)
			ok = false
		}
		seen := map[string]bool{}
		for _, r := range it.Reviews {
			if seen[r.ID] {
				v.fail("%s/%s: review %s served twice", k.cat, k.target, r.ID)
				ok = false
			}
			seen[r.ID] = true
			rr, _ := c.review(it.ID, r.ID)
			if rr == nil {
				v.fail("%s/%s: review %s is not a current review of item %s", k.cat, k.target, r.ID, it.ID)
				ok = false
				continue
			}
			if rr.Rating != r.Rating || rr.Text != r.Text {
				v.fail("%s/%s: review %s content differs from the acknowledged one", k.cat, k.target, r.ID)
				ok = false
			}
			sets[i] = append(sets[i], rr)
		}
	}
	return items, sets, ok
}

func (v *verifier) checkShortlist(k readKey, method string, s *served, st setStats, n int) bool {
	want := v.e.w.k
	if want > n {
		want = n
	}
	if len(s.Shortlist) != want || len(s.Shortlist) == 0 || s.Shortlist[0] != 0 {
		v.fail("%s/%s %s shortlist %v: want the target and %d members", k.cat, k.target, method, s.Shortlist, want)
		return false
	}
	for i := 1; i < len(s.Shortlist); i++ {
		if s.Shortlist[i] <= s.Shortlist[i-1] || s.Shortlist[i] >= n {
			v.fail("%s/%s %s shortlist %v is not ascending instance positions", k.cat, k.target, method, s.Shortlist)
			return false
		}
	}
	if w := st.shortlistWeight(reqLambda, reqMu, s.Shortlist); !closeTo(s.ShortlistWeight, w) {
		v.fail("%s/%s %s shortlist weight %v, recomputed %v", k.cat, k.target, method, s.ShortlistWeight, w)
		return false
	}
	return true
}

// elapsedRe matches the per-response timing field, the one part of a
// select response allowed to differ between the router and a replica.
var elapsedRe = regexp.MustCompile(`"elapsed_ms":[-0-9.eE+]+`)

func (v *verifier) run(ctx context.Context, keys []readKey) error {
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	w := v.e.w
	for i, k := range keys {
		z := len(v.ref[k.cat].Aspects)
		plusOp := readOp(k.cat, k.target, k.m, w.k, "", shortlistMethod)
		plus, plusBody, ok := v.selectOp(ctx, v.dep.entry, plusOp)
		if !ok {
			continue
		}
		items, sets, ok := v.sets(k, plus)
		if !ok {
			continue
		}
		st := computeStats(items, sets, z)
		plusEq5 := st.eq5(reqLambda, reqMu)
		if plus.Algorithm != "CompaReSetS+" || plus.Degraded || plus.Optimal != nil {
			v.fail("%s/%s: algorithm %q degraded %v optimal %v", k.cat, k.target, plus.Algorithm, plus.Degraded, plus.Optimal)
		}
		if !closeTo(plus.Objective, plusEq5) {
			v.fail("%s/%s: served Eq. 5 objective %v, recomputed %v", k.cat, k.target, plus.Objective, plusEq5)
		}
		v.objectives = append(v.objectives, plus.Objective)
		if v.checkShortlist(k, shortlistMethod, plus, st, len(items)) {
			v.weights = append(v.weights, plus.ShortlistWeight)
		}

		if i >= w.compareReads {
			continue
		}
		// CompaReSetS+ starts from the CompaReSetS sets and keeps each
		// incumbent unless it improves, so its Eq. 5 value is never higher.
		base, _, ok := v.selectOp(ctx, v.dep.entry, readOp(k.cat, k.target, k.m, 0, "CompaReSetS", ""))
		if ok {
			if bItems, bSets, ok := v.sets(k, base); ok {
				bst := computeStats(bItems, bSets, z)
				if !closeTo(base.Objective, bst.eq1(reqLambda)) {
					v.fail("%s/%s: served CompaReSetS Eq. 1 objective %v, recomputed %v", k.cat, k.target, base.Objective, bst.eq1(reqLambda))
				}
				if be5 := bst.eq5(reqLambda, reqMu); plusEq5 > be5*(1+1e-9) {
					v.fail("%s/%s: CompaReSetS+ Eq. 5 %v exceeds CompaReSetS sets' %v", k.cat, k.target, plusEq5, be5)
				}
			}
		}
		// The exact shortlist weighs at least as much as the heuristics'.
		for _, method := range []string{"greedy", "topk"} {
			h, _, ok := v.selectOp(ctx, v.dep.entry, readOp(k.cat, k.target, k.m, w.k, "", method))
			if !ok {
				continue
			}
			if hItems, hSets, ok := v.sets(k, h); ok {
				hst := computeStats(hItems, hSets, z)
				if v.checkShortlist(k, method, h, hst, len(hItems)) && h.ShortlistWeight > plus.ShortlistWeight*(1+1e-9)+1e-12 {
					v.fail("%s/%s: %s shortlist weight %v exceeds exact %v", k.cat, k.target, method, h.ShortlistWeight, plus.ShortlistWeight)
				}
			}
		}
		// Through the router, the bytes equal a direct replica's.
		if w.routed {
			for _, p := range v.dep.servers {
				status, direct, err := send(ctx, v.e.hc, p.base, plusOp.method, plusOp.path, plusOp.body, true)
				v.tally.add("verify", err == nil && status == http.StatusOK, fmt.Sprintf("direct %s: status %d %v", p.name, status, err))
				if err != nil || status != http.StatusOK {
					v.fail("direct %s select %s: status %d %v", p.name, plusOp.body, status, err)
					continue
				}
				if !bytes.Equal(elapsedRe.ReplaceAll(direct, nil), elapsedRe.ReplaceAll(plusBody, nil)) {
					v.fail("%s/%s: router bytes differ from %s's", k.cat, k.target, p.name)
				}
			}
		}
	}
	if len(v.objectives) == 0 || len(v.weights) == 0 {
		v.fail("verification pass produced no checked selection")
	}
	return nil
}

// readBack restarts the single server on its mutation log with the same
// command line and probes every acknowledged write. Each probe is one
// operation; one that finds the write missing is a failed operation.
// Updates are probed first (PATCH succeeds only if the appended review is
// there), then appends (re-POST must be refused as a duplicate), then
// removes (re-DELETE must find nothing), so no probe's side effect can
// satisfy a later one.
func (e *env) readBack(ctx context.Context, dep *deployment, acked []*op, tl *tally) error {
	srv := dep.servers[0]
	srv.stop(10 * time.Second)
	p, err := startProc("server0-restart", srv.cmd.Path, srv.log.Name(), dep.serverArgs[0]...)
	if err != nil {
		return err
	}
	dep.servers[0] = p
	rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := waitReady(rctx, e.hc, p); err != nil {
		return err
	}
	want := map[opKind]int{opUpdate: http.StatusOK, opAppend: http.StatusUnprocessableEntity, opRemove: http.StatusNotFound}
	for _, kind := range []opKind{opUpdate, opAppend, opRemove} {
		for _, o := range acked {
			if o.kind != kind {
				continue
			}
			status, _, err := send(rctx, e.hc, p.base, o.method, o.path, o.body, false)
			tl.add("probe", err == nil && status == want[kind],
				fmt.Sprintf("%s %s after restart: status %d, want %d", o.method, o.path, status, want[kind]))
		}
	}
	return nil
}

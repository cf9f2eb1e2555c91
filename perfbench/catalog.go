package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"comparesets/internal/datagen"
	"comparesets/internal/model"
)

// writeCatalog generates datagen's three default categories from seed,
// with products and reviewers multiplied by scale and, when alsoBought > 0,
// that mean comparison-list length, and writes them as corpus JSON files
// into dir: the only input the program receives. It returns the paths in
// category order.
func writeCatalog(dir string, seed int64, scale, alsoBought float64) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, cfg := range datagen.DefaultConfigs(seed) {
		cfg.Products = int(float64(cfg.Products) * scale)
		cfg.Reviewers = int(float64(cfg.Reviewers) * scale)
		if alsoBought > 0 {
			cfg.MeanAlsoBought = alsoBought
		}
		c, err := datagen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", cfg.Category.Name, err)
		}
		path := filepath.Join(dir, strings.ToLower(c.Category)+".json")
		if err := model.SaveCorpus(c, path); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// The reference catalog is the benchmark's own copy of the inputs, parsed
// from the generated files with types of its own and updated with every
// write the program acknowledged. The output checks compute against it and
// never against the program's model package.
type refMention struct {
	Aspect   int     `json:"aspect"`
	Polarity int     `json:"polarity"`
	Score    float64 `json:"score"`
}

type refReview struct {
	ID       string       `json:"id"`
	ItemID   string       `json:"item_id"`
	Reviewer string       `json:"reviewer"`
	Rating   int          `json:"rating"`
	Text     string       `json:"text"`
	Mentions []refMention `json:"mentions"`
}

type refItem struct {
	ID         string       `json:"id"`
	Title      string       `json:"title"`
	Reviews    []*refReview `json:"reviews"`
	AlsoBought []string     `json:"also_bought"`
}

type refCorpus struct {
	Category string     `json:"category"`
	Aspects  []string   `json:"aspects"`
	Items    []*refItem `json:"items"`
	byID     map[string]*refItem
}

// refCatalog maps category name to its reference corpus.
type refCatalog map[string]*refCorpus

func loadRefCatalog(paths []string) (refCatalog, error) {
	cat := refCatalog{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var c refCorpus
		if err := json.Unmarshal(raw, &c); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		c.byID = make(map[string]*refItem, len(c.Items))
		for _, it := range c.Items {
			c.byID[it.ID] = it
		}
		cat[c.Category] = &c
	}
	return cat, nil
}

// categories returns the category names in sorted order.
func (rc refCatalog) categories() []string {
	out := make([]string, 0, len(rc))
	for name := range rc {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// instance returns the target followed by every also-bought item present in
// the corpus, the paper's problem instance for one target product.
func (c *refCorpus) instance(target string) []*refItem {
	t := c.byID[target]
	if t == nil {
		return nil
	}
	out := []*refItem{t}
	for _, id := range t.AlsoBought {
		if o := c.byID[id]; o != nil && id != target {
			out = append(out, o)
		}
	}
	return out
}

func (c *refCorpus) review(item, id string) (*refReview, int) {
	it := c.byID[item]
	if it == nil {
		return nil, -1
	}
	for i, r := range it.Reviews {
		if r.ID == id {
			return r, i
		}
	}
	return nil, -1
}

// apply mirrors one acknowledged write on the reference copy.
func (c *refCorpus) apply(o *op) error {
	it := c.byID[o.item]
	if it == nil {
		return fmt.Errorf("write on unknown item %s", o.item)
	}
	switch o.kind {
	case opAppend:
		it.Reviews = append(it.Reviews, o.review)
	case opUpdate:
		_, i := c.review(o.item, o.review.ID)
		if i < 0 {
			return fmt.Errorf("update of unknown review %s", o.review.ID)
		}
		it.Reviews[i] = o.review
	case opRemove:
		_, i := c.review(o.item, o.reviewID)
		if i < 0 {
			return fmt.Errorf("remove of unknown review %s", o.reviewID)
		}
		it.Reviews = append(it.Reviews[:i:i], it.Reviews[i+1:]...)
	}
	return nil
}

// Polarity codes of the corpus files.
const (
	polPositive = 0
	polNegative = 1
)

// opinionVec is π(S) under the binary opinion definition: per (aspect,
// polarity) cell the number of reviews holding that opinion, divided by the
// largest per-aspect review count of the set.
func opinionVec(set []*refReview, z int) []float64 {
	out := make([]float64, 2*z)
	mentions := make([]float64, z)
	for _, r := range set {
		cell := map[int]bool{}
		asp := map[int]bool{}
		for _, m := range r.Mentions {
			asp[m.Aspect] = true
			switch m.Polarity {
			case polPositive:
				cell[2*m.Aspect] = true
			case polNegative:
				cell[2*m.Aspect+1] = true
			}
		}
		for k := range cell {
			out[k]++
		}
		for a := range asp {
			mentions[a]++
		}
	}
	if d := maxOf(mentions); d > 0 {
		for i := range out {
			out[i] /= d
		}
	}
	return out
}

// aspectVec is φ(S): per aspect the number of reviews mentioning it, divided
// by the largest such count.
func aspectVec(set []*refReview, z int) []float64 {
	out := make([]float64, z)
	for _, r := range set {
		asp := map[int]bool{}
		for _, m := range r.Mentions {
			asp[m.Aspect] = true
		}
		for a := range asp {
			out[a]++
		}
	}
	if d := maxOf(out); d > 0 {
		for i := range out {
			out[i] /= d
		}
	}
	return out
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// setStats holds, per instance item, Δ(τᵢ, π(Sᵢ)), Δ(Γ, φ(Sᵢ)) and φ(Sᵢ).
type setStats struct {
	opLoss, aspLoss []float64
	phi             [][]float64
}

func computeStats(items []*refItem, sets [][]*refReview, z int) setStats {
	gamma := aspectVec(items[0].Reviews, z)
	st := setStats{
		opLoss:  make([]float64, len(items)),
		aspLoss: make([]float64, len(items)),
		phi:     make([][]float64, len(items)),
	}
	for i, it := range items {
		tau := opinionVec(it.Reviews, z)
		st.phi[i] = aspectVec(sets[i], z)
		st.opLoss[i] = sqDist(tau, opinionVec(sets[i], z))
		st.aspLoss[i] = sqDist(gamma, st.phi[i])
	}
	return st
}

// eq1 is the CompaReSetS objective: Σᵢ Δ(τᵢ, π(Sᵢ)) + λ²·Δ(Γ, φ(Sᵢ)).
func (st setStats) eq1(lambda float64) float64 {
	var total float64
	for i := range st.opLoss {
		total += st.opLoss[i] + lambda*lambda*st.aspLoss[i]
	}
	return total
}

// eq5 is the CompaReSetS+ objective: Eq. 1 plus μ²·Σ_{i<j} Δ(φ(Sᵢ), φ(Sⱼ)).
func (st setStats) eq5(lambda, mu float64) float64 {
	total := st.eq1(lambda)
	for i := range st.phi {
		for j := i + 1; j < len(st.phi); j++ {
			total += mu * mu * sqDist(st.phi[i], st.phi[j])
		}
	}
	return total
}

// shortlistWeight is Eq. 6 on the similarity graph of §3.1:
// w_ij = max d − d_ij with d_ij = Δ(τᵢ,π(Sᵢ)) + Δ(τⱼ,π(Sⱼ)) + λ²Δ(Γ,φ(Sᵢ)) +
// λ²Δ(Γ,φ(Sⱼ)) + μ²Δ(φ(Sᵢ),φ(Sⱼ)), summed over the members' pairs.
func (st setStats) shortlistWeight(lambda, mu float64, members []int) float64 {
	n := len(st.phi)
	if n < 2 {
		return 0
	}
	l2, m2 := lambda*lambda, mu*mu
	d := func(i, j int) float64 {
		return st.opLoss[i] + st.opLoss[j] + l2*st.aspLoss[i] + l2*st.aspLoss[j] + m2*sqDist(st.phi[i], st.phi[j])
	}
	maxd := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			maxd = math.Max(maxd, d(i, j))
		}
	}
	var total float64
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			total += maxd - d(members[a], members[b])
		}
	}
	return total
}

// closeTo reports whether got matches want to a tight relative tolerance.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

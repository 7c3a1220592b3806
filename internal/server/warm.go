package server

import (
	"math"
	"sort"
	"strconv"

	"antlayer/internal/core"
)

// Warm-start tuning. A warm-started run gets warmToursFrac of the cold
// tour budget (the colony resumes near the target, so it needs far fewer
// tours), warm runs that set no stall-tours early stop get
// warmStallTours, which turns the reduced budget into actual early exits,
// and the similarity probe needs a vertex-name overlap of
// warmMinSimilarity (|shared| / max(|a|, |b|)); base= bypasses the probe.
const (
	warmToursFrac     = 1.0 / 3.0
	warmStallTours    = 3
	warmMinSimilarity = 0.5
)

// warmCache is the daemon's second cache: where the result cache holds
// finished bodies keyed by the full (graph, params) hash, warmCache
// holds colony States keyed by the canonical graph hash alone (see
// graphKey), so a request for a graph the daemon has never seen in this
// exact form can still inherit the pheromone matrix of a near-identical
// one. Near-misses are found by a cheap similarity probe over vertex
// names: an inverted name→entry index counts how many vertex names the
// request shares with each cached graph, and the best entry wins when
// the overlap ratio clears warmMinSimilarity. Clients that know
// their lineage skip the probe with the base= knob.
//
// Storage is the shared byte-weighted LRU (see lru) with no entry cap:
// a pheromone matrix is O(N·L) float64s — a few hundred KiB for the
// corpus sizes, tens of MiB for large graphs — and a single state
// bigger than a quarter of the budget is never admitted. Storing a key
// again replaces the entry and bumps its generation; the generation is
// part of every warm result-cache key, so a body computed against an
// older state is never replayed for a newer one.
//
// Safe for concurrent use (the LRU's mutex guards gen and index too).
// States are stored and handed out as-is: Server.warmPlan remaps
// (copies) before a colony ever sees one, and everything else treats
// them as immutable.
type warmCache struct {
	*lru[*warmEntry]
	gen   uint64
	index map[string]map[*warmEntry]struct{} // vertex name → entries containing it
}

type warmEntry struct {
	key    string // canonical graph hash (graphKey)
	names  []string
	tokens []string // unique vertex names, for index bookkeeping
	state  *core.State
	gen    uint64
}

// weight is the entry's LRU weight: the state's estimated resident size
// plus the name bytes.
func (e *warmEntry) weight() int64 {
	n := e.state.MemoryBytes()
	for _, name := range e.names {
		n += int64(len(name)) + 16
	}
	return n
}

func newWarmCache(maxBytes int64) *warmCache {
	c := &warmCache{index: make(map[string]map[*warmEntry]struct{})}
	c.lru = newLRU(0, maxBytes, 4, (*warmEntry).weight, c.unindex)
	return c
}

// uniqueNames returns the sorted distinct vertex names — the token set
// the similarity probe votes over.
func uniqueNames(names []string) []string {
	seen := make(map[string]struct{}, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if _, ok := seen[n]; !ok {
			seen[n] = struct{}{}
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// put stores (or replaces) the state for a graph.
func (c *warmCache) put(key string, names []string, state *core.State) {
	if c == nil || state == nil {
		return
	}
	e := &warmEntry{
		key:    key,
		names:  append([]string(nil), names...),
		tokens: uniqueNames(names),
		state:  state,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lru.put(key, e) {
		return
	}
	c.gen++
	e.gen = c.gen
	for _, tok := range e.tokens {
		set := c.index[tok]
		if set == nil {
			set = make(map[*warmEntry]struct{})
			c.index[tok] = set
		}
		set[e] = struct{}{}
	}
}

// unindex is the LRU's removal hook: it drops an entry from the name
// index.
func (c *warmCache) unindex(e *warmEntry) {
	for _, tok := range e.tokens {
		if set := c.index[tok]; set != nil {
			delete(set, e)
			if len(set) == 0 {
				delete(c.index, tok)
			}
		}
	}
}

// probe finds the cached graph most similar to the request's vertex-name
// set: similarity is |shared names| / max(|request names|, |entry
// names|), so an identical graph scores 1 and a one-vertex edit on an
// n-vertex graph scores about (n-1)/n. The best entry at or above
// minSim wins; ties go to the newest generation, so the outcome is
// deterministic for a given cache content. Returns nil when nothing
// clears the bar.
func (c *warmCache) probe(names []string, minSim float64) (*warmEntry, float64) {
	tokens := uniqueNames(names)
	if len(tokens) == 0 {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	votes := make(map[*warmEntry]int)
	for _, tok := range tokens {
		for e := range c.index[tok] {
			votes[e]++
		}
	}
	var best *warmEntry
	bestSim := 0.0
	for e, shared := range votes {
		denom := len(tokens)
		if len(e.tokens) > denom {
			denom = len(e.tokens)
		}
		sim := float64(shared) / float64(denom)
		if best == nil || sim > bestSim || (sim == bestSim && e.gen > best.gen) {
			best, bestSim = e, sim
		}
	}
	if best == nil || bestSim < minSim {
		return nil, 0
	}
	c.lru.get(best.key) // mark it recently used
	return best, bestSim
}

// warmRun carries what computeCached needs to serve a warm-started call:
// the lineage-suffixed result-cache key, the lineage itself (for logs and
// the X-Warm-Base header) and the tour budget the request would have
// burned cold, so tours_saved can be measured against what actually ran.
type warmRun struct {
	key       string
	baseKey   string
	coldTours int
}

// warmPlan decides how a prepared call computes: cold, or warm-started
// from a cached state. For every warm-eligible request (algo aco or
// island, warm not disabled, no caller-supplied state) it flips on
// state export, so cold computes feed the warm cache, and sets c.probed.
// When a usable base state exists — named by base=, or found by the
// similarity probe — it is remapped onto the request's graph by vertex
// name and injected as ACO.Warm, the tour budget is cut to warmToursFrac
// of the cold budget, and the stall-tours early stop is armed (unless the
// request set its own); c.warm then carries a result-cache key extended
// by the lineage (base key + generation), so warm bodies never collide
// with cold ones and replays of the same lineage stay byte-identical.
func (s *Server) warmPlan(c *call) {
	req := &c.req
	if s.warm == nil || !req.Warm || req.ACO.Warm != nil {
		return
	}
	if req.Algo != "aco" && req.Algo != "island" {
		return
	}
	req.ACO.ExportState = true
	if _, ok := s.cache.Get(c.key); ok {
		// The exact body is already in the result cache: serving it beats
		// re-running even a warm colony, and exact repeats stay
		// byte-identical to their first answer. Warm planning is only for
		// requests that actually have to compute.
		return
	}
	c.probed = true
	var entry *warmEntry
	if req.Base != "" {
		entry, _ = s.warm.Get(req.Base) // the exact graph key
	} else {
		entry, _ = s.warm.probe(c.names, warmMinSimilarity)
	}
	if entry == nil {
		// Eligible, probed, nothing usable: a warm miss — the cold run
		// that follows will export its state and seed the next one.
		s.metrics.warmMisses.Add(1)
		return
	}
	if _, ok := s.cache.Get(c.key); ok {
		// An identical cold run finished between the peek above and the
		// probe. It stores its body before it publishes its anchor, so
		// the body is here now: serve it, as the peek would have.
		c.probed = false
		return
	}
	mapping := core.MapByName(entry.names, c.names)
	req.ACO.Warm = entry.state.Remap(mapping, c.g.N())
	coldTours := req.ACO.Tours
	warmTours := int(math.Ceil(float64(req.ACO.Tours) * warmToursFrac))
	if warmTours < 1 {
		warmTours = 1
	}
	if warmTours < req.ACO.Tours {
		req.ACO.Tours = warmTours
	}
	if req.ACO.StopAfterStagnantTours == 0 {
		req.ACO.StopAfterStagnantTours = warmStallTours
	}
	c.warm = &warmRun{
		key:       c.key + "|warm|" + entry.key + "|" + strconv.FormatUint(entry.gen, 10),
		baseKey:   entry.key,
		coldTours: coldTours * req.colonies(),
	}
}

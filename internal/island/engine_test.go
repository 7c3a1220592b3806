package island

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"

	"antlayer/internal/core"
	"antlayer/internal/dag"
)

// migratorFunc adapts a function to the Migrator interface.
type migratorFunc func(ctx context.Context, epoch int, local []Elite) ([]Elite, bool, error)

func (f migratorFunc) Exchange(ctx context.Context, epoch int, local []Elite) ([]Elite, bool, error) {
	return f(ctx, epoch, local)
}

// TestRecordingMigratorSeesFullRing drives an all-island engine through
// a migrator wrapping the ring and checks the contract: sequential
// epochs, one elite per island in ring order every epoch, done islands
// still emitting.
func TestRecordingMigratorSeesFullRing(t *testing.T) {
	g := testGraph(t, 40, 9)
	p := DefaultParams()
	p.Colony.Tours = 6
	e, err := NewEngine(g, p, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(p.Islands)
	epochs := 0
	migrations, err := Drive(context.Background(), e, migratorFunc(func(ctx context.Context, epoch int, local []Elite) ([]Elite, bool, error) {
		epochs++
		if epoch != epochs {
			t.Errorf("epoch %d delivered out of order (want %d)", epoch, epochs)
		}
		if len(local) != p.Islands {
			t.Errorf("epoch %d: %d elites, want %d", epoch, len(local), p.Islands)
		}
		for i, e := range local {
			if e.Island != i {
				t.Errorf("epoch %d: elite %d is for island %d", epoch, i, e.Island)
			}
			if len(e.Assign) != g.N() {
				t.Errorf("epoch %d: island %d elite covers %d vertices", epoch, i, len(e.Assign))
			}
		}
		return ring.Exchange(ctx, epoch, local)
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Tours=6, interval=2 → 3 epochs; the last barrier sees every island
	// done and ends the run without a migration.
	if epochs != 3 {
		t.Errorf("migrator saw %d epochs, want 3", epochs)
	}
	if migrations != 2 {
		t.Errorf("migrations = %d, want 2", migrations)
	}
}

// partitionBarrier is a miniature in-process coordinator: P engines (one
// per partition) exchange elites through it exactly the way distributed
// workers exchange them through the shard coordinator — collect all
// partitions at the barrier, shift along the global ring, answer each
// partition positionally. It prototypes the transport semantics the
// network implementation must preserve.
type partitionBarrier struct {
	k     int
	parts [][]int

	mu         sync.Mutex
	cond       *sync.Cond
	epoch      int
	arrived    int
	elites     map[int]Elite // island -> elite, current epoch
	incoming   map[int][]Elite
	cont       bool
	migrations int
}

func newPartitionBarrier(k int, parts [][]int) *partitionBarrier {
	b := &partitionBarrier{k: k, parts: parts, elites: make(map[int]Elite)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// forPartition returns the Migrator a given partition's engine drives
// against.
func (b *partitionBarrier) forPartition(pi int) Migrator {
	return migratorFunc(func(_ context.Context, epoch int, local []Elite) ([]Elite, bool, error) {
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, e := range local {
			b.elites[e.Island] = e
		}
		b.arrived++
		if b.arrived == len(b.parts) {
			// Last partition in: play the ring for everyone.
			cont := false
			for _, e := range b.elites {
				if !e.Done {
					cont = true
				}
			}
			b.cont = cont
			b.incoming = make(map[int][]Elite)
			if cont && b.k > 1 {
				for qi, islands := range b.parts {
					in := make([]Elite, len(islands))
					for j, i := range islands {
						in[j] = b.elites[(i-1+b.k)%b.k]
					}
					b.incoming[qi] = in
				}
				b.migrations++
			}
			b.arrived = 0
			b.elites = make(map[int]Elite)
			b.epoch = epoch
			b.cond.Broadcast()
		} else {
			for b.epoch != epoch {
				b.cond.Wait()
			}
		}
		return b.incoming[pi], b.cont, nil
	})
}

// runPartitioned runs the archipelago as P independent engines over the
// given partition, joined only by the barrier — the in-process model of
// a multi-process run — and assembles the combined result.
func runPartitioned(t *testing.T, g *dag.Graph, p Params, parts [][]int) *Result {
	t.Helper()
	b := newPartitionBarrier(p.Islands, parts)
	var wg sync.WaitGroup
	reports := make([][]Report, len(parts))
	errs := make([]error, len(parts))
	migs := make([]int, len(parts))
	for pi, islands := range parts {
		wg.Add(1)
		go func(pi int, islands []int) {
			defer wg.Done()
			e, err := NewEngine(g, p, islands)
			if err != nil {
				errs[pi] = err
				return
			}
			migs[pi], errs[pi] = Drive(context.Background(), e, b.forPartition(pi))
			if errs[pi] != nil {
				return
			}
			reports[pi], errs[pi] = e.Finalize()
		}(pi, islands)
	}
	wg.Wait()
	for pi, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", pi, err)
		}
	}
	var all []Report
	for _, r := range reports {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Island < all[j].Island })
	res, err := Assemble(g, p, all, b.migrations)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPartitionedEnginesMatchInProcess is the Migrator seam's golden
// determinism test: splitting the archipelago over separate engines —
// any number of them, any contiguous partition — produces bitwise the
// result of the single-process run. This is the property the distributed
// transport inherits (internal/shard adds only serialization, which is
// exact for ints and float64s).
func TestPartitionedEnginesMatchInProcess(t *testing.T) {
	g := testGraph(t, 60, 23)
	p := DefaultParams()
	p.Colony.Tours = 6
	p.Colony.Seed = 77
	p.Islands = 5
	p.MigrationInterval = 2
	// Stagger island finishes so partitions hold a mix of live and done
	// islands across epochs.
	p.Colony.StopAfterStagnantTours = 3

	want, err := Run(context.Background(), g, p)
	if err != nil {
		t.Fatal(err)
	}
	partitions := [][][]int{
		{{0, 1, 2, 3, 4}},
		{{0, 1, 2}, {3, 4}},
		{{0}, {1, 2}, {3}, {4}},
		{{0}, {1}, {2}, {3}, {4}},
	}
	for _, parts := range partitions {
		got := runPartitioned(t, g, p, parts)
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("partition %v diverged:\n got %s\nwant %s", parts, fingerprint(got), fingerprint(want))
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := testGraph(t, 10, 1)
	p := DefaultParams()
	cases := map[string][]int{
		"out of range": {0, 4},
		"negative":     {-1},
		"duplicate":    {1, 1},
	}
	for name, local := range cases {
		if _, err := NewEngine(g, p, local); err == nil {
			t.Errorf("%s: accepted %v", name, local)
		}
	}
	bad := p
	bad.Islands = 0
	if _, err := NewEngine(g, bad, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestAssembleValidation(t *testing.T) {
	g := testGraph(t, 5, 2)
	p := DefaultParams()
	if _, err := Assemble(g, p, nil, 0); err == nil {
		t.Error("empty report set accepted")
	}
	if _, err := Assemble(g, p, []Report{{Island: 1}}, 0); err == nil {
		t.Error("out-of-order reports accepted")
	}
	if _, err := Assemble(g, p, []Report{{Island: 0, Objective: 1, Assign: []int{1}}}, 0); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestAbsorbValidation(t *testing.T) {
	g := testGraph(t, 10, 3)
	p := DefaultParams()
	p.Islands = 2
	e, err := NewEngine(g, p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Absorb(nil); err != nil {
		t.Errorf("empty absorb: %v", err)
	}
	if err := e.Absorb(make([]Elite, 1)); err == nil {
		t.Error("mismatched absorb accepted")
	}
}

// TestWireTypesRoundTripExactly pins that Elite and Report survive JSON
// bit-exactly — the property that lets the network transport promise the
// same layerings as the in-process ring.
func TestWireTypesRoundTripExactly(t *testing.T) {
	e := Elite{Island: 3, Assign: []int{1, 4, 2}, Objective: 1.0 / 30, Done: true}
	blob, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Elite
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(e.Objective) {
		t.Errorf("objective bits changed: %x vs %x", math.Float64bits(got.Objective), math.Float64bits(e.Objective))
	}
	r := Report{
		Island: 1, Seed: -42, Objective: 0.1 + 0.2, BestTour: 3, ToursRun: 6,
		Assign: []int{2, 1}, Height: 2, Width: 3.3000000000000003,
		History: []core.TourStats{{Tour: 1, BestObjective: 1.0 / 7, MeanObjective: 0.30000000000000004}},
	}
	blob, err = json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var gr Report
	if err := json.Unmarshal(blob, &gr); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"objective": {gr.Objective, r.Objective},
		"width":     {gr.Width, r.Width},
		"hist-best": {gr.History[0].BestObjective, r.History[0].BestObjective},
		"hist-mean": {gr.History[0].MeanObjective, r.History[0].MeanObjective},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("%s bits changed", name)
		}
	}
}

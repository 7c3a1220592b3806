package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/url"
	"time"

	"antlayer"
	"antlayer/internal/core"
	"antlayer/internal/server"
)

// replayStats is what the in-process replay of a workload's verify list
// measured: a stopwatch around each public call a request goes through,
// on one goroutine with one colony worker. Times are in µs.
type replayStats struct {
	decode, bodyBytes                 []float64
	init, tour, finalize, remap, draw []float64
	stateBytes                        []float64
	island                            []float64
	walks                             int
	stepUS                            float64
	toursRun, toursWasted             int
}

func micros(since time.Time) float64 {
	return float64(time.Since(since)) / float64(time.Microsecond)
}

// replayWorkload replays the first verifyLen requests of w in-process:
// decode (server.ParseRequest + server.ParseGraph), then — for a
// workload whose requests compute — the colony call by call
// (core.NewColony, Colony.StepContext one tour at a time,
// Colony.Finalize), the in-process island run for island requests, and
// the drawing (antlayer.Draw + WriteSVG) for rendered ones. A warm-
// eligible workload warm-starts the way the daemon does: from the last
// cold run's state while the vertex names still overlap by half, with a
// third of the tours and the stall stop armed.
func replayWorkload(ctx context.Context, w *workload) (replayStats, error) {
	var st replayStats
	var anchorNames []string
	var anchor *core.State
	for i := 0; i < verifyLen; i++ {
		r := w.next(i)
		start := time.Now()
		q, err := url.ParseQuery(r.query)
		if err != nil {
			return st, err
		}
		req, err := server.ParseRequest(q)
		if err != nil {
			return st, err
		}
		g, names, err := server.ParseGraph(req, bytes.NewReader(r.body))
		if err != nil {
			return st, err
		}
		st.decode = append(st.decode, micros(start))
		st.bodyBytes = append(st.bodyBytes, float64(len(r.body)))
		if !w.computes {
			continue
		}

		if req.Algo == "island" {
			p := antlayer.Options{ACO: req.ACO, Islands: req.Islands, MigrationInterval: req.MigrationInterval}.IslandOf()
			p.Colony.Workers = 1
			start = time.Now()
			res, err := antlayer.IslandColonyRunContext(ctx, g, p)
			if err != nil {
				return st, err
			}
			st.island = append(st.island, micros(start))
			for _, is := range res.PerIsland {
				st.toursRun += is.ToursRun
				st.toursWasted += is.ToursRun - is.BestTour
			}
		}

		// An island request's colonies each run these parameters, so the
		// single colony stands in for one island.
		p := req.ACO
		p.Workers = 1
		if w.exports {
			p.ExportState = true
			if anchor != nil && overlap(anchorNames, names) >= 0.5 {
				start = time.Now()
				p.Warm = anchor.Remap(core.MapByName(anchorNames, names), g.N())
				st.remap = append(st.remap, micros(start))
				p.Tours = int(math.Ceil(float64(p.Tours) / 3))
				p.StopAfterStagnantTours = 3
			}
		}
		start = time.Now()
		c, err := core.NewColony(g, p)
		if err != nil {
			return st, err
		}
		st.init = append(st.init, micros(start))
		for done := false; !done; {
			start = time.Now()
			if done, err = c.StepContext(ctx, 1); err != nil {
				return st, err
			}
			us := micros(start)
			st.tour = append(st.tour, us)
			st.stepUS += us
		}
		start = time.Now()
		res, err := c.Finalize()
		if err != nil {
			return st, err
		}
		st.finalize = append(st.finalize, micros(start))
		st.walks += p.Ants * c.ToursRun()
		if req.Algo != "island" {
			st.toursRun += c.ToursRun()
			st.toursWasted += c.ToursRun() - res.BestTour
		}
		if res.State != nil {
			st.stateBytes = append(st.stateBytes, float64(res.State.MemoryBytes()))
			if p.Warm == nil {
				anchorNames, anchor = names, res.State
			}
		}
		if r.render {
			start = time.Now()
			d, err := antlayer.Draw(g, fixedLayering{res.Layering}, nil)
			if err != nil {
				return st, fmt.Errorf("draw: %w", err)
			}
			var buf bytes.Buffer
			if err := d.WriteSVG(&buf); err != nil {
				return st, fmt.Errorf("draw: %w", err)
			}
			st.draw = append(st.draw, micros(start))
		}
	}
	return st, nil
}

// overlap is the warm cache's similarity: shared distinct vertex names
// over the larger name set.
func overlap(a, b []string) float64 {
	inA := make(map[string]bool, len(a))
	for _, n := range a {
		inA[n] = true
	}
	inB := make(map[string]bool, len(b))
	shared := 0
	for _, n := range b {
		if !inB[n] {
			inB[n] = true
			if inA[n] {
				shared++
			}
		}
	}
	return float64(shared) / float64(max(len(inA), len(inB), 1))
}

// fixedLayering hands an already computed layering to the drawing
// pipeline, which normalizes it in place — hence the clone.
type fixedLayering struct{ l *antlayer.Layering }

func (f fixedLayering) Layer(*antlayer.Graph) (*antlayer.Layering, error) {
	return f.l.Clone(), nil
}

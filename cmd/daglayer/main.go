// Command daglayer layers DAGs with a chosen algorithm — as a one-shot
// CLI, a directory batch runner, a long-running HTTP daemon, or a
// cluster worker hosting islands for a coordinator daemon.
//
// Usage:
//
//	daglayer [layer] [flags]   layer one graph from a DOT file (or stdin)
//	daglayer batch [flags] dir layer every .dot/.edges file in dir
//	daglayer serve  [flags]    run the layering HTTP service
//	daglayer worker [flags]    join a coordinator's archipelago
//	daglayer version           print the build version (also: -version)
//	daglayer help              print this overview
//
// One-shot layering reads a graph, reports the paper's quality metrics and
// optionally emits an SVG or ASCII drawing via the Sugiyama pipeline:
//
//	daglayer -algo aco [-in graph.dot] [-promote] [-svg out.svg] [-ascii]
//	         [-dummy-width 1.0] [-ants 10] [-tours 10] [-alpha 1] [-beta 3]
//	         [-seed 1] [-workers 0] [-cg-width 4] [-islands 4]
//	         [-migration-interval 2]
//
// Algorithms: aco (default), island (multi-colony with elite migration),
// lpl, minwidth, cg (Coffman–Graham), ns (network simplex). Interrupting
// a run (Ctrl-C) cancels the colony.
//
// Batch mode layers a whole directory concurrently on a bounded worker
// pool and writes one /layer-shaped JSON result per input:
//
//	daglayer batch -algo island -jobs 8 -out results/ corpus/n050
//
// Both modes parse their request flags, the /layer query parameters of
// the same names, with server.ParseRequest, so they refuse what /layer
// refuses. batch -stream adds warm=false: the daemon computes cold, and
// each streamed file matches the local mode's byte for byte.
//
// The daemon answers POSTed graphs with layering JSON (synchronously on
// /layer, asynchronously via the /jobs queue), caches results and bounds
// every request by a deadline (see internal/server):
//
//	daglayer serve [-addr :8645] [-cache 256] [-cache-bytes 67108864]
//	               [-max-concurrent 0] [-timeout 30s] [-max-timeout 2m]
//	               [-job-queue 64] [-job-retention 256]
//	               [-coordinator ""] [-quiet]
//
// -max-concurrent sizes the one pool of compute slots that every
// in-process computation takes, from /layer, /jobs or a bulk line, and the
// job worker pool with it (default GOMAXPROCS). Distributed runs on a
// live fleet take no slot; the coordinator's run queue admits them.
//
// A daemon started with -coordinator also coordinates a distributed
// archipelago: worker processes register with it and island runs with
// distributed=true shard across them, returning byte-identical results
// to in-process runs (README "Cluster"):
//
//	daglayer serve -coordinator :8650 &
//	daglayer worker -coordinator host:8650 [-name w1] [-retry 2s]
//
// Workers heartbeat at a fifth of the coordinator's serve
// -heartbeat-timeout, a cadence the coordinator names at registration,
// so dead processes are expelled promptly; they reconnect with capped
// exponential backoff (-retry, -retry-max) that resets after a
// successful registration. The chaos harness (cmd/loadgen, DESIGN.md
// §11) exercises all of it against real process trees. Neither mode has
// a fault flag: the harness slows a worker on the wire, through a relay
// between it and the coordinator.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"antlayer"
	"antlayer/internal/buildinfo"
	"antlayer/internal/dot"
	"antlayer/internal/server"
)

// modes lists the subcommands for usage and unknown-subcommand errors.
const modes = `modes:
  layer    layer one graph and print metrics (default; see 'daglayer layer -h')
  batch    layer every .dot/.edges file in a directory (see 'daglayer batch -h')
  serve    run the layering HTTP daemon (see 'daglayer serve -h')
  worker   join a coordinator daemon's archipelago (see 'daglayer worker -h')
  version  print the build version (also: -version)
  help     print this overview`

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, "daglayer:", err)
		os.Exit(1)
	}
}

// run dispatches on the subcommand. A leading non-flag argument selects
// the mode; anything else is the historical flag-only invocation, which
// stays the `layer` mode.
func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) > 0 && (args[0] == "-version" || args[0] == "--version") {
		return printVersion(stdout)
	}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "layer":
			return runLayer(ctx, args[1:], stdin, stdout)
		case "batch":
			return runBatch(ctx, args[1:], stdout)
		case "serve":
			return runServe(ctx, args[1:], stdout)
		case "worker":
			return runWorker(ctx, args[1:], stdout)
		case "version":
			return printVersion(stdout)
		case "help":
			fmt.Fprintf(stdout, "usage: daglayer [mode] [flags]\n\n%s\n", modes)
			return nil
		default:
			return fmt.Errorf("unknown mode %q\n%s", args[0], modes)
		}
	}
	return runLayer(ctx, args, stdin, stdout)
}

// printVersion reports how the binary was built — module version, VCS
// revision and toolchain — the same description the daemon's /healthz
// serves.
func printVersion(stdout io.Writer) error {
	_, err := fmt.Fprintf(stdout, "daglayer %s\n", buildinfo.Get())
	return err
}

// requestFlags declares on fs the request flags both layering modes
// share: the /layer query parameters of the same names, with the
// daemon's defaults. The returned function spells the parsed flags as
// that query, and server.ParseRequest is its only parser, so the CLI
// accepts, refuses and defaults exactly as the daemon does.
func requestFlags(fs *flag.FlagSet) (query func() url.Values) {
	def, isl := server.DefaultRequest(), antlayer.DefaultIslandParams()
	shared := flag.NewFlagSet("request", flag.ContinueOnError)
	shared.String("algo", def.Algo, "layering algorithm: aco|island|lpl|minwidth|cg|ns")
	shared.Bool("promote", def.Promote, "apply the Promote Layering post-processing step")
	shared.Float64("dummy-width", def.DummyWidth, "width of a dummy vertex (nd_width)")
	shared.Int("ants", def.ACO.Ants, "aco: colony size")
	shared.Int("tours", def.ACO.Tours, "aco: number of tours")
	shared.Float64("alpha", def.ACO.Alpha, "aco: pheromone exponent")
	shared.Float64("beta", def.ACO.Beta, "aco: heuristic exponent")
	shared.Int64("seed", def.ACO.Seed, "aco: random seed")
	shared.Int("workers", def.ACO.Workers, "aco: goroutines per tour (0 = all CPUs; same seed gives the same layering at any value)")
	shared.Int("cg-width", def.CGWidth, "cg: maximum real vertices per layer")
	shared.Int("islands", isl.Islands, "island: number of cooperating colonies")
	shared.Int("migration-interval", isl.MigrationInterval, "island: tours between elite migrations")
	shared.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	return func() url.Values {
		q := url.Values{}
		shared.VisitAll(func(f *flag.Flag) { q.Set(f.Name, f.Value.String()) })
		return q
	}
}

// runComparison layers g with every algorithm and prints one row each.
func runComparison(ctx context.Context, w io.Writer, g *antlayer.Graph, opts antlayer.Options) error {
	algos := []struct {
		name string
		l    antlayer.Layerer
	}{
		{"lpl", antlayer.LongestPath()},
		{"lpl+promote", antlayer.WithPromotion(antlayer.LongestPath())},
		{"minwidth", antlayer.MinWidthBest(opts.DummyWidth)},
		{fmt.Sprintf("cg(w=%d)", opts.CGWidth), antlayer.CoffmanGraham(opts.CGWidth)},
		{"netsimplex", antlayer.NetworkSimplex()},
		{"aco", antlayer.AntColonyContext(ctx, opts.ACO)},
		{"island", antlayer.IslandColonyContext(ctx, opts.IslandOf())},
	}
	fmt.Fprintf(w, "graph: %d vertices, %d edges\n", g.N(), g.M())
	fmt.Fprintf(w, "%-12s %7s %11s %11s %8s %8s\n",
		"algorithm", "height", "width(+d)", "width(-d)", "dummies", "density")
	for _, a := range algos {
		l, err := a.l.Layer(g)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		m := l.ComputeMetrics(opts.DummyWidth)
		fmt.Fprintf(w, "%-12s %7d %11.1f %11.1f %8d %8d\n",
			a.name, m.Height, m.WidthIncl, m.WidthExcl, m.DummyCount, m.EdgeDensity)
	}
	return nil
}

func runLayer(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("daglayer layer", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: daglayer [layer] [flags] (reads the graph from -in or stdin)\n\n%s\n\nflags of the layer mode:\n", modes)
		fs.PrintDefaults()
	}
	query := requestFlags(fs)
	var (
		in      = fs.String("in", "", "input file (default: stdin)")
		format  = fs.String("format", "dot", "input format: dot | edges (corpusgen edge lists)")
		compare = fs.Bool("compare", false, "run every algorithm and print a comparison table")
		svgOut  = fs.String("svg", "", "write an SVG drawing to this file")
		rankOut = fs.String("rank-dot", "", "write a rank=same DOT file with the computed layering")
		ascii   = fs.Bool("ascii", false, "print an ASCII drawing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := query()
	q.Set("format", *format)
	req, err := server.ParseRequest(q)
	if err != nil {
		return err
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	// Edge lists get synthesised v<N> names and labels, so the SVG,
	// rank-dot and ASCII outputs render labelled vertices too.
	g, names, err := server.ParseGraph(req, r)
	if err != nil {
		return err
	}

	if *compare {
		return runComparison(ctx, stdout, g, req.Options)
	}

	layerer, err := antlayer.LayererByName(ctx, req.Algo, req.Options)
	if err != nil {
		return err
	}
	if req.Promote {
		layerer = antlayer.WithPromotion(layerer)
	}

	l, err := layerer.Layer(g)
	if err != nil {
		return err
	}
	m := l.ComputeMetrics(req.DummyWidth)
	fmt.Fprintf(stdout, "graph: %d vertices, %d edges\n", g.N(), g.M())
	fmt.Fprintf(stdout, "algorithm: %s (promote=%v)\n", req.Algo, req.Promote)
	fmt.Fprintf(stdout, "height:           %d\n", m.Height)
	fmt.Fprintf(stdout, "width incl dummy: %.2f\n", m.WidthIncl)
	fmt.Fprintf(stdout, "width excl dummy: %.2f\n", m.WidthExcl)
	fmt.Fprintf(stdout, "dummy vertices:   %d\n", m.DummyCount)
	fmt.Fprintf(stdout, "edge density:     %d\n", m.EdgeDensity)
	for li, layer := range l.Layers() {
		fmt.Fprintf(stdout, "L%-3d", li+1)
		for _, v := range layer {
			name := names[v]
			if name == "" {
				name = fmt.Sprintf("v%d", v)
			}
			fmt.Fprintf(stdout, " %s", name)
		}
		fmt.Fprintln(stdout)
	}

	if *rankOut != "" {
		f, err := os.Create(*rankOut)
		if err != nil {
			return err
		}
		if err := dot.WriteLayered(f, l, "layered"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *rankOut)
	}

	if *svgOut != "" || *ascii {
		d, err := antlayer.Draw(g, antlayer.Fixed(l), nil)
		if err != nil {
			return err
		}
		if *ascii {
			if err := d.WriteASCII(stdout); err != nil {
				return err
			}
		}
		if *svgOut != "" {
			f, err := os.Create(*svgOut)
			if err != nil {
				return err
			}
			if err := d.WriteSVG(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *svgOut)
		}
	}
	return nil
}

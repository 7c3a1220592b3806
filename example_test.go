package antlayer_test

import (
	"context"
	"fmt"

	"antlayer"
)

// The diamond DAG: 3 -> {2, 1} -> 0. Edges point from the dependent vertex
// to its dependency, so sinks land on layer 1.
func diamond() *antlayer.Graph {
	g := antlayer.NewGraph(4)
	g.MustAddEdge(3, 2)
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(1, 0)
	return g
}

func ExampleLongestPath() {
	l, err := antlayer.LongestPath().Layer(diamond())
	if err != nil {
		panic(err)
	}
	fmt.Println("height:", l.Height())
	fmt.Println("layer of source:", l.Layer(3))
	// Output:
	// height: 3
	// layer of source: 3
}

func ExampleAntColonyContext() {
	p := antlayer.DefaultACOParams() // 10 tours, alpha=1, beta=3
	l, err := antlayer.AntColonyContext(context.Background(), p).Layer(diamond())
	if err != nil {
		panic(err)
	}
	m := l.ComputeMetrics(1.0)
	fmt.Printf("height=%d width=%.0f dummies=%d\n", m.Height, m.WidthIncl, m.DummyCount)
	// Output:
	// height=3 width=2 dummies=0
}

func ExampleWithPromotion() {
	// 4 -> 3 -> 0 plus two leaves hanging off 4; LPL leaves the leaves on
	// layer 1, promotion lifts them next to their source.
	g := antlayer.NewGraph(5)
	g.MustAddEdge(4, 3)
	g.MustAddEdge(3, 0)
	g.MustAddEdge(4, 1)
	g.MustAddEdge(4, 2)

	plain, _ := antlayer.LongestPath().Layer(g)
	promoted, _ := antlayer.WithPromotion(antlayer.LongestPath()).Layer(g)
	fmt.Println("LPL dummies:", plain.DummyCount())
	fmt.Println("LPL+PL dummies:", promoted.DummyCount())
	// Output:
	// LPL dummies: 2
	// LPL+PL dummies: 0
}

func ExampleNetworkSimplex() {
	g := antlayer.NewGraph(5)
	g.MustAddEdge(4, 3)
	g.MustAddEdge(3, 0)
	g.MustAddEdge(4, 1)
	g.MustAddEdge(4, 2)
	l, err := antlayer.NetworkSimplex().Layer(g)
	if err != nil {
		panic(err)
	}
	fmt.Println("minimum dummy count:", l.DummyCount())
	// Output:
	// minimum dummy count: 0
}

func ExampleDraw() {
	d, err := antlayer.Draw(diamond(), antlayer.LongestPath(), nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("layers=%d crossings=%d\n", d.Height, d.Crossings)
	// Output:
	// layers=3 crossings=0
}

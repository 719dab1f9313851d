package apollo

// Benchmarks regenerating the paper's experiments that bench/ does not yet
// reproduce (one per experiment in DESIGN.md's index). They wrap the same
// harness cmd/csbench uses, writing their tables to io.Discard; run `go run
// ./cmd/csbench all` for the human-readable output, and `go test -bench=.`
// for timings. E1, E2, E6 and E7 are measured by `bash bench/run.sh`.

import (
	"io"
	"testing"

	"apollo/internal/experiments"
)

func BenchmarkOperatorRepertoire(b *testing.B) { // E3
	for i := 0; i < b.N; i++ {
		if err := experiments.E3Repertoire(io.Discard, 0.2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentElimination(b *testing.B) { // E4
	for i := 0; i < b.N; i++ {
		if err := experiments.E4SegmentElimination(io.Discard, 60000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitmapPushdown(b *testing.B) { // E5
	for i := 0; i < b.N; i++ {
		if err := experiments.E5BitmapPushdown(io.Discard, 0.2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArchivalAccess(b *testing.B) { // E8
	for i := 0; i < b.N; i++ {
		if err := experiments.E8ArchivalAccess(io.Discard, 60000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteBitmap(b *testing.B) { // E9
	for i := 0; i < b.N; i++ {
		if err := experiments.E9DeleteOverhead(io.Discard, 60000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpill(b *testing.B) { // E10
	for i := 0; i < b.N; i++ {
		if err := experiments.E10Spill(io.Discard, 0.2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodingAblation(b *testing.B) { // E11
	for i := 0; i < b.N; i++ {
		if err := experiments.E11EncodingAblation(io.Discard, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampling(b *testing.B) { // E12
	for i := 0; i < b.N; i++ {
		if err := experiments.E12Sampling(io.Discard, 60000); err != nil {
			b.Fatal(err)
		}
	}
}

package cfa

import (
	"testing"

	"oslayout/internal/kernelgen"
)

// BenchmarkAllLoops times natural-loop detection over the default kernel.
func BenchmarkAllLoops(b *testing.B) {
	p := kernelgen.Build(kernelgen.DefaultConfig()).Prog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllLoops(p)
	}
}

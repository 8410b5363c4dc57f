package kernelgen

import "testing"

// BenchmarkKernelBuild times synthesis of the default kernel.
func BenchmarkKernelBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(DefaultConfig())
	}
}

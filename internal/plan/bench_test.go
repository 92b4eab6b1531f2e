package plan

import (
	"crypto/sha256"
	"testing"
)

// The layer benchmarks of the request path's first two stages, over the
// bodies benchmark/data.go sends (benchPlans builds them the same way):
// decoding a plan document, and what the service's planKey pays for it —
// the canonical encoding into a reused buffer and its SHA-256.

var benchNames = []string{"insert4x4", "point", "agg4", "wide"}

var (
	sinkNode Node
	sinkSum  [sha256.Size]byte
)

func BenchmarkPlanDecode(b *testing.B) {
	plans := benchPlans()
	for _, name := range benchNames {
		body, err := MarshalNode(plans[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if sinkNode, err = UnmarshalNode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlanKey(b *testing.B) {
	plans := benchPlans()
	for _, name := range benchNames {
		p := plans[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = AppendNode(buf[:0], p); err != nil {
					b.Fatal(err)
				}
				sinkSum = sha256.Sum256(buf)
			}
		})
	}
}

// Convergence watches the self-repairing loop do its job: it runs a strided
// kernel in slices and prints the prefetch distance after each slice,
// showing the ±1 search the paper describes in §3.5 — climb while the
// average access latency improves, back off when it worsens, stop when the
// load goes quiet or matures.
//
//	go run ./examples/convergence
package main

import (
	"fmt"

	"tridentsp"
	"tridentsp/internal/isa"
)

// buildKernel is a 30-instruction strided loop over 12 MB: small enough
// that the optimal distance is well above 1, so there is a climb to watch.
func buildKernel() *tridentsp.Program {
	const size = 12 << 20
	b := tridentsp.NewBuilder("convergence", 0x1000, 0x1000000)
	arr := b.Alloc(size)
	b.Ldi(6, 1<<40)
	b.Label("outer")
	b.Ldi(1, arr)
	b.Ldi(4, size/64-1)
	b.Label("top")
	b.Ld(10, 1, 0)
	for i := 0; i < 24; i++ {
		b.Op(isa.FADD, 13, 13, 10)
	}
	b.OpI(isa.ADDI, 1, 1, 64)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	p := b.MustBuild()
	for off := uint64(0); off < size; off += 64 {
		p.SetWord(arr+off, off)
	}
	return p
}

func main() {
	cfg := tridentsp.DefaultConfig()
	cfg.HW = tridentsp.HWNone // isolate the software prefetcher
	prog := buildKernel()
	sys := tridentsp.NewSystem(cfg, prog)

	fmt.Println("slice   instrs      IPC   distance   repairs")
	const slice = 150_000
	var last tridentsp.Results
	for i := 1; i <= 24; i++ {
		last = sys.Run(uint64(i) * slice)
		dist := int64(0)
		for head := prog.Base; head < prog.CodeEnd(); head += 8 {
			for load := prog.Base; load < prog.CodeEnd(); load += 8 {
				if d := sys.Optimizer().Distance(head, load); d > dist {
					dist = d
				}
			}
		}
		fmt.Printf("%5d %8d  %7.4f  %9d  %8d\n",
			i, last.OrigInstrs, last.IPC(), dist, last.Repairs)
	}
	fmt.Printf("\nfinal: %d repair events; the distance settled where the loop stopped raising delinquent-load events (§3.5.1)\n", last.Repairs)
}

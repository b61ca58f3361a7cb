// fetchtuning studies the SMT fetch policies of section 5.3: classic
// round-robin against ICOUNT, OCOUNT (stream-length aware) and BALANCE
// (scalar/vector mixing), on the 8-thread configurations where the
// policies matter. It reproduces the paper's observations that the
// policies only pay off at high thread counts, that ICOUNT is best for
// MMX, and that OCOUNT is best for MOM with BALANCE as a cheap
// alternative.
package main

import (
	"fmt"
	"log"

	"mediasmt/internal/core"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
)

func main() {
	suite := exp.NewSuite(exp.Options{Scale: 0.5})
	for _, isaKind := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		fmt.Printf("SMT+%s, conventional hierarchy:\n", isaKind)
		var rr float64
		for _, pol := range []core.Policy{core.PolicyRR, core.PolicyICOUNT, core.PolicyOCOUNT, core.PolicyBALANCE} {
			if isaKind == core.ISAMMX && pol == core.PolicyOCOUNT {
				continue // OCOUNT reads the stream-length register: MOM only
			}
			r, err := suite.Run(isaKind, 8, pol, mem.ModeConventional)
			if err != nil {
				log.Fatal(err)
			}
			v := r.IPC
			if isaKind == core.ISAMOM {
				v = r.EIPC
			}
			if pol == core.PolicyRR {
				rr = v
			}
			fmt.Printf("  %-4s  %6.2f  (%+5.1f%% vs RR)\n", pol, v, 100*(v/rr-1))
		}
		fmt.Println()
	}
}

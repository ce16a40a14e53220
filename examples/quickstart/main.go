// Quickstart: reproduce the paper's headline result in ~20 lines.
//
// A receiver whose MApp hammers the memory controller (3x host
// congestion) degrades DCTCP badly; enabling hostCC restores throughput
// to the target bandwidth and all but eliminates drops at the host.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	hostcc "repro"
)

func main() {
	fmt.Println("hostCC quickstart: 4 DCTCP flows into a host with 3x host congestion")
	fmt.Println()

	for _, enable := range []bool{false, true} {
		opts := []hostcc.Option{
			hostcc.WithHostCongestion(3),            // 24 MApp cores generating CPU-to-memory traffic
			hostcc.WithMinRTO(5 * time.Millisecond), // settle the startup transient quickly
		}
		if enable {
			opts = append(opts, hostcc.WithHostCC()) // the paper's contribution, on/off
		}
		x, err := hostcc.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		m := x.Run()

		name := "DCTCP          "
		if enable {
			name = "DCTCP + hostCC "
		}
		fmt.Printf("%s throughput %5.1f Gbps | drops %8.4f%% | IIO occupancy %5.1f | MApp %4.1f GBps\n",
			name, m.ThroughputGbps, m.DropRatePct, m.AvgIS, m.MAppGBps)
	}

	fmt.Println()
	fmt.Println("hostCC holds network throughput at the 80 Gbps target and keeps")
	fmt.Println("IIO occupancy below the congestion threshold, so the NIC buffer")
	fmt.Println("never overflows (compare Figures 2 and 10 of the paper).")
}

// VDI scenario: a virtual-desktop-style primary storage workload — many
// cloned desktop images produce extreme deduplication (most writes repeat
// recently written blocks) on top of ordinarily compressible data. This is
// the workload class the paper's introduction motivates: without inline
// reduction the SSD absorbs every duplicate write.
//
// The example compares the four integration options on the VDI stream and
// shows what inline reduction saves the SSD, then runs the morning boot
// storm: every desktop re-reading the shared golden image at once, served
// through the parallel batch read path.
//
//	go run ./examples/vdi
package main

import (
	"fmt"
	"log"
	"time"

	"inlinered"
)

func main() {
	const totalBytes = 96 << 20

	spec := inlinered.StreamSpec{
		TotalBytes:       totalBytes,
		DedupRatio:       4.0, // clone-heavy: 3 of 4 writes are duplicates
		CompressionRatio: 2.5,
		TemporalLocality: true, // desktops rewrite what they wrote recently
		Seed:             7,
	}

	fmt.Println("VDI workload: dedup 4.0, compression 2.5, recency-biased duplicates")
	fmt.Println()
	fmt.Printf("%-14s %12s %10s %12s %14s\n", "integration", "IOPS", "x SSD", "reduction", "SSD host pages")

	var ssdIOPS float64
	for _, mode := range inlinered.Modes {
		stream, err := inlinered.NewStream(spec)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := inlinered.Run(inlinered.PaperPlatform(), inlinered.Options{Mode: mode}, stream)
		if err != nil {
			log.Fatal(err)
		}
		if ssdIOPS == 0 {
			// The comparator line: what the bare drive sustains.
			ssdIOPS = 80000
		}
		fmt.Printf("%-14s %12.0f %9.2fx %11.2fx %14d\n",
			mode, rep.IOPS, rep.IOPS/ssdIOPS, rep.ReductionRatio, rep.SSD.HostWritePages)
	}

	fmt.Println()
	fmt.Printf("without reduction the drive would absorb %d pages per pass;\n", totalBytes/4096)
	fmt.Println("inline reduction cuts that by the reduction factor — the paper's endurance argument.")

	bootStorm()
}

// bootStorm is the read-side half of the VDI story: the golden image is
// written once (every clone dedups against it), then all desktops boot at
// the same time. Each unique chunk was compressed as 4 independent
// sub-blocks (decoded part by part), and the batch read path spreads the
// blob decodes across the worker pool — same virtual-time report, less
// wall-clock time.
func bootStorm() {
	spec := inlinered.DefaultBootStormSpec()
	fill, err := spec.Fill()
	if err != nil {
		log.Fatal(err)
	}
	lbas, err := spec.Storm()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("boot storm: %d desktops x %d reads over one %d-block golden image\n",
		spec.Clients, spec.ReadsPerClient, spec.ImageBlocks)
	fmt.Printf("%-12s %12s %14s %12s\n", "decode", "wall clock", "virtual time", "parts/blob")

	var virt time.Duration
	for _, par := range []int{1, 4} {
		arr, err := inlinered.NewArray(inlinered.BlockDeviceOptions{
			Blocks:      4096,
			Shards:      4,
			SubBlocks:   4,
			Parallelism: par,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := arr.Serve(fill, inlinered.ServeOptions{}); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rep, err := arr.ReadBatch(lbas, inlinered.ReadBatchOptions{})
		wall := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		arr.Close()
		label := "serial"
		if par > 1 {
			label = fmt.Sprintf("%d workers", par)
		}
		fmt.Printf("%-12s %12s %14s %9.1f\n",
			label, wall.Round(time.Microsecond), rep.Elapsed.Round(time.Microsecond),
			float64(rep.DecodedParts)/float64(rep.DecodedBlobs))
		if virt == 0 {
			virt = rep.Elapsed
		} else if virt != rep.Elapsed {
			log.Fatalf("virtual time diverged across parallelism: %v vs %v", rep.Elapsed, virt)
		}
	}
	fmt.Println()
	fmt.Println("the virtual-time column is identical by construction: parallel decode")
	fmt.Println("changes only how fast the simulation itself runs.")
}

// Adaptivity: the paper argues a query optimizer "must have a principled
// way to determine what the likely benefit is when using I/O parallelism"
// across "a range of storage technologies (HDD, RAID HDD, SSD, and even
// future technologies)". This example calibrates four device generations
// with the *same* code and shows the optimizer's chosen parallel degree
// and estimated benefit tracking each device's measured capability.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"pioqo"
)

func main() {
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "device\tqd32 gain (calibrated)\tchosen plan\testimated\tmeasured")
	for _, kind := range []pioqo.DeviceKind{pioqo.HDD, pioqo.SATA, pioqo.SSD, pioqo.NVME} {
		sys := pioqo.New(pioqo.Config{Device: kind, PoolPages: 1024})
		tab, err := sys.CreateTable("t", 200_000, 33, pioqo.WithSyntheticData())
		if err != nil {
			log.Fatal(err)
		}
		cal, err := sys.Calibrate(pioqo.CalibrationOptions{StopThreshold: -1})
		if err != nil {
			log.Fatal(err)
		}
		band := sys.DevicePages()
		gain := cal.Model.PageCost(band, 1) / cal.Model.PageCost(band, 32)

		q := pioqo.Query{Table: tab, Low: 0, High: 1999} // 1% range
		res, err := sys.Run(context.Background(), q, pioqo.Cold())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%v\t%.1fx\t%v\t%v\t%v\n",
			kind, gain, res.Plan, res.Plan.EstimatedCost, res.Runtime)
	}
	w.Flush()
	fmt.Println("\nNo device-specific branches anywhere: the calibrated QDTT model is")
	fmt.Println("the only thing that differs, and the plans follow it.")
}

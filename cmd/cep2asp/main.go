// Command cep2asp translates PSL patterns into ASP query plans and
// optionally runs them against synthetic workloads.
//
// Usage:
//
//	cep2asp [flags] <pattern.psl | ->
//	echo 'PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 15 MIN' | cep2asp -
//
// Flags select the execution mode (-fcep) and optimizations (-o1, -o2,
// -o3 with -parallelism), print the plan (-explain, the default), or run
// the pattern against generated traffic/air-quality data (-run).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cep2asp"
)

func main() {
	var (
		o1          = flag.Bool("o1", false, "use interval joins (optimization O1)")
		o2          = flag.Bool("o2", false, "use aggregation for iterations (optimization O2)")
		o3          = flag.Bool("o3", false, "partition by equi-join keys (optimization O3)")
		auto        = flag.Bool("auto", false, "let the advisor pick optimizations from measured stream statistics")
		parallelism = flag.Int("parallelism", 4, "task slots for partitioned operators (with -o3/-auto)")
		fcep        = flag.Bool("fcep", false, "use the single-operator NFA baseline instead of the mapping")
		run         = flag.Bool("run", false, "run the pattern against synthetic data and report metrics")
		sensors     = flag.Int("sensors", 50, "synthetic sensors per stream (with -run)")
		minutes     = flag.Int("minutes", 240, "synthetic stream duration in minutes (with -run)")
		seed        = flag.Int64("seed", 1, "workload seed (with -run)")
		dataCSV     = flag.String("data", "", "CSV file with the input events (type,id,lat,lon,ts,value); overrides the synthetic generators")
		maxPrint    = flag.Int("matches", 5, "matches to print (with -run)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cep2asp [flags] <pattern.psl | ->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	src, err := readPattern(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	pattern, err := cep2asp.Parse(src)
	if err != nil {
		fatal(err)
	}

	opts := cep2asp.Options{
		UseIntervalJoin: *o1,
		UseAggregation:  *o2,
		UsePartitioning: *o3,
		Parallelism:     *parallelism,
	}
	q, v := cep2asp.GenerateQnV(*sensors, *minutes, *seed)
	pm10, pm25, temp, hum := cep2asp.GenerateAirQuality(*sensors, *minutes, *seed)
	streams := map[string][]cep2asp.Event{
		"QnVQuantity": q, "QnVVelocity": v,
		"PM10": pm10, "PM25": pm25, "Temp": temp, "Hum": hum,
	}
	measured := cep2asp.MeasureStats(streams)
	if *auto {
		opts = cep2asp.Advise(pattern, measured, *parallelism)
		fmt.Printf("advisor selected: %s\n\n", opts)
	}
	if !opts.UseIntervalJoin {
		freqs := make(map[string]float64, len(measured))
		for name, st := range measured {
			freqs[name] = st.Frequency
		}
		if w := cep2asp.CheckCompleteness(pattern, freqs); w != "" {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
	}
	var plan *cep2asp.Plan
	if *fcep {
		plan, err = cep2asp.TranslateFCEP(pattern, opts)
	} else {
		plan, err = cep2asp.Translate(pattern, opts)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Println("Pattern:")
	fmt.Println(indent(pattern.String()))
	fmt.Println("\nPlan:")
	fmt.Print(plan.Explain())

	if !*run {
		return
	}

	job := cep2asp.NewJob(pattern).WithOptions(opts)
	if *fcep {
		job.UseFCEP()
	}
	needed := map[string]bool{}
	for _, l := range pattern.Leaves() {
		needed[l.TypeName] = true
	}
	if *dataCSV != "" {
		fmt.Printf("\nRunning against %s...\n", *dataCSV)
		events, err := cep2asp.ReadCSVFile(*dataCSV)
		if err != nil {
			fatal(err)
		}
		byName := map[string][]cep2asp.Event{}
		for _, e := range events {
			// Group rows by type name; per-type order is preserved.
			byName[typeNameOf(e)] = append(byName[typeNameOf(e)], e)
		}
		for name := range needed {
			evs, ok := byName[name]
			if !ok {
				fatal(fmt.Errorf("CSV file has no events of type %q", name))
			}
			job.AddStream(name, evs)
		}
	} else {
		fmt.Printf("\nRunning against synthetic data (%d sensors, %d minutes, seed %d)...\n",
			*sensors, *minutes, *seed)
		for name, evs := range streams {
			if needed[name] {
				job.AddStream(name, evs)
			}
		}
		for name := range needed {
			if _, ok := streams[name]; !ok {
				fatal(fmt.Errorf("no synthetic generator for event type %q; built-in types: QnVQuantity, QnVVelocity, PM10, PM25, Temp, Hum", name))
			}
		}
	}

	stats, err := job.Run(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("events:      %d\n", stats.Events)
	fmt.Printf("elapsed:     %v\n", stats.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:  %.0f tpl/s\n", stats.ThroughputTps)
	fmt.Printf("matches:     %d (%d unique)\n", stats.Total, stats.Unique)
	fmt.Printf("latency:     avg %v, max %v\n",
		stats.AvgLatency.Round(time.Microsecond), stats.MaxLatency.Round(time.Microsecond))
	for i, m := range stats.Matches {
		if i >= *maxPrint {
			fmt.Printf("... and %d more\n", len(stats.Matches)-*maxPrint)
			break
		}
		fmt.Println("  ", m)
	}
}

func readPattern(arg string) (string, error) {
	if arg == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(arg)
	return string(b), err
}

func indent(s string) string {
	out := "  "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "  "
		}
	}
	return out
}

// typeNameOf resolves an event's registered type name.
func typeNameOf(e cep2asp.Event) string { return cep2asp.TypeNameOf(e.Type) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cep2asp:", err)
	os.Exit(1)
}

// Command storm is an interactive REPL speaking the STORM query language.
//
// It starts with synthetic versions of the paper's demo datasets loaded
// (osm, mesowest, tweets) and accepts statements such as:
//
//	ESTIMATE AVG(altitude) FROM osm WHERE REGION(-112.4, 40.2, -111.4, 41.2) WITH ERROR 1%
//	COUNT FROM tweets WHERE REGION(-85.4, 32.7, -83.4, 34.7) AND TIME(864000, 1123200)
//	KDE FROM tweets WHERE REGION(-125, 24, -66, 50) GRID 48x24 SAMPLES 2000
//	TERMS(text) FROM tweets WHERE REGION(-85.4, 32.7, -83.4, 34.7) AND TIME(864000, 1123200) TOP 10
//	SHOW DATASETS
//
// Flags control dataset sizes; -q runs one statement and exits.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"storm/internal/data"
	"storm/internal/engine"
	"storm/internal/gen"
	"storm/internal/query"
)

func main() {
	osmN := flag.Int("osm", 500_000, "OSM-like records to generate")
	tweetN := flag.Int("tweets", 300_000, "tweet-like records to generate")
	stations := flag.Int("stations", 2_000, "weather stations to generate")
	readings := flag.Int("readings", 48, "readings per station")
	seed := flag.Int64("seed", 1, "generator seed")
	oneShot := flag.String("q", "", "execute one statement and exit")
	flag.Parse()

	eng := engine.New(engine.Config{Seed: *seed})
	fmt.Fprintln(os.Stderr, "storm: generating demo datasets...")
	tweets, _ := gen.Tweets(gen.TweetsConfig{N: *tweetN, Seed: *seed, Snowstorm: true})
	for _, ds := range []*data.Dataset{
		gen.OSM(gen.OSMConfig{N: *osmN, Seed: *seed}),
		tweets,
		gen.Stations(gen.StationsConfig{Stations: *stations, ReadingsPerStation: *readings, Seed: *seed}),
	} {
		if _, err := eng.Register(ds, engine.IndexOptions{}); err != nil {
			fmt.Fprintf(os.Stderr, "storm: registering %s: %v\n", ds.Name(), err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "storm: ready (type a statement, 'help', or 'quit')")

	if *oneShot != "" {
		if err := query.Execute(context.Background(), eng, *oneShot, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "storm: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("storm> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch strings.ToLower(line) {
		case "":
			continue
		case "quit", "exit", "\\q":
			return
		case "help", "\\h":
			printHelp()
			continue
		}
		if err := query.Execute(context.Background(), eng, line, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

func printHelp() {
	fmt.Println(`statements:
  ESTIMATE AVG|SUM|MIN|MAX|VARIANCE|STDDEV|MEDIAN(attr) FROM ds
      [WHERE REGION(x1,y1,x2,y2) [AND TIME(t1,t2)]]
      [GROUP BY strcol] [WITH CONFIDENCE 95%] [ERROR 1%] [WITHIN 500ms]
      [SAMPLES n] [USING rstree|lstree|randompath|queryfirst|samplefirst]
  ESTIMATE QUANTILE(attr, 0.9) FROM ds [WHERE ...]
  ESTIMATE AVG(a), STDDEV(a), MEDIAN(a) FROM ds ...   (one shared sample stream)
  COUNT FROM ds [WHERE ...]
  EXPLAIN ESTIMATE ... | EXPLAIN COUNT ...
  KDE FROM ds [WHERE ...] [GRID 32x32] [SAMPLES n]
  HOTSPOTS(k) FROM ds [WHERE ...] [GRID 32x32] [SAMPLES n]
  TERMS(textcol) FROM ds [WHERE ...] [TOP 10] [SAMPLES n]
  TRAJECTORY(usercol, 'user') FROM ds [WHERE ...] [SAMPLES n]
  CLUSTER(k) FROM ds [WHERE ...] [SAMPLES n]
  INSERT INTO ds VALUES (lon, lat, t), ...
  DELETE FROM ds WHERE REGION(...) [AND TIME(...)]
  SHOW DATASETS`)
}

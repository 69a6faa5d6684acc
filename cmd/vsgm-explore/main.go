// Command vsgm-explore runs the stateless model checker: it enumerates (or
// randomly swarms over) the message and membership-notification
// interleavings of a reconfiguration scenario and validates every schedule
// against all specification checkers.
//
// Usage:
//
//	vsgm-explore -n 2 -max 200000            # DFS over the schedule tree
//	vsgm-explore -n 3 -swarm 5000 -seed 9    # random swarm
//	vsgm-explore -n 3 -leave                 # a member leaves mid-traffic
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vsgm/internal/sim"
	"vsgm/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vsgm-explore:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vsgm-explore", flag.ContinueOnError)
	var (
		n     = fs.Int("n", 2, "number of end-points")
		max   = fs.Int("max", 100_000, "DFS schedule budget")
		swarm = fs.Int("swarm", 0, "run this many random schedules instead of DFS")
		seed  = fs.Int64("seed", 1, "swarm seed")
		leave = fs.Bool("leave", false, "one member leaves in the explored change")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("need at least 2 end-points")
	}

	procs := sim.ProcIDs(*n)
	members := types.NewProcSet(procs...)
	survivors := members.Clone()
	if *leave {
		survivors.Remove(procs[*n-1])
	}

	scenario := func(c *sim.Cluster) error {
		if err := c.StartChange(members); err != nil {
			return err
		}
		if _, err := c.DeliverView(members); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, p := range members.Sorted() {
			if _, err := c.Send(p, []byte("m-"+string(p))); err != nil {
				return err
			}
		}
		if err := c.StartChange(survivors); err != nil {
			return err
		}
		v, err := c.DeliverView(survivors)
		if err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, p := range survivors.Sorted() {
			if got := c.Endpoint(p).CurrentView(); !got.Equal(v) {
				return fmt.Errorf("%s stabilized in %s, want %s", p, got, v)
			}
		}
		return nil
	}

	cfg := sim.Config{Procs: procs}
	start := time.Now()
	var (
		res sim.ExploreResult
		err error
	)
	if *swarm > 0 {
		fmt.Fprintf(out, "swarming %d random schedules over %d end-points (leave=%v, seed=%d)\n",
			*swarm, *n, *leave, *seed)
		res, err = sim.Swarm(cfg, scenario, *swarm, *seed)
	} else {
		fmt.Fprintf(out, "exploring schedules depth-first over %d end-points (leave=%v, budget %d)\n",
			*n, *leave, *max)
		res, err = sim.Exhaustive(cfg, scenario, *max)
	}
	if err != nil {
		return fmt.Errorf("VIOLATION after %d schedules:\n%w", res.Schedules, err)
	}
	fmt.Fprintf(out, "%d schedules verified in %v", res.Schedules, time.Since(start).Round(time.Millisecond))
	if res.Exhausted {
		fmt.Fprintf(out, " — schedule tree exhausted: every interleaving satisfies the specifications")
	}
	fmt.Fprintln(out)
	return nil
}

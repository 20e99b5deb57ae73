package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var d lib.Doer = lib.Impl{}
	fmt.Println(lib.Named(d.Do()), lib.Wrapped{})

	cfg := lib.DefaultConfig()
	cfg.Written = 1
	cfg.Mid.Inner.Deep = 2
	cfg.TupleA, cfg.TupleB = 3, 4
	set(&cfg.Addressed)
	other := lib.Config{Keyed: 5}
	fmt.Println(cfg.Validate(), lib.Start(cfg), other.ReadOnly, cfg.DefaultOnly)
}

func set(p *int) { *p = 6 }

package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var d lib.Doer = lib.Impl{}
	fmt.Println(lib.Named(d.Do()), lib.Wrapped{})
}

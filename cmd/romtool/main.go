// Command romtool is the RK-32 cartridge toolchain CLI.
//
//	romtool build game.asm game.rk32 [-title T] [-seed N]   assemble a ROM
//	romtool dis game.rk32                                   disassemble
//	romtool info game.rk32                                  show the header
//	romtool export pong pong.rk32                           write a built-in game
//	romtool run game.rk32 [-frames N] [-input random]       execute headless
//	romtool trace game.rk32 [-frames N] [-max M]            instruction trace
//	romtool verify match.replay game.rk32                   check a recording
//	romtool screenshot game.rk32 out.png [-frames N]        write a PNG of the screen
//	romtool list                                            list built-in games
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"image"
	"image/png"
	"log"
	"os"

	"retrolock/internal/replay"
	"retrolock/internal/rom"
	"retrolock/internal/rom/games"
	"retrolock/internal/vm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("romtool: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "build":
		build(args)
	case "dis":
		dis(args)
	case "info":
		info(args)
	case "export":
		export(args)
	case "run":
		run(args)
	case "trace":
		trace(args)
	case "verify":
		verify(args)
	case "screenshot":
		screenshot(args)
	case "list":
		for _, name := range games.Names() {
			fmt.Println(name)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  romtool build <src.asm> <out.rk32> [-title T] [-seed N]
  romtool dis <rom.rk32>
  romtool info <rom.rk32>
  romtool export <game> <out.rk32>
  romtool run <rom.rk32|game> [-frames N] [-input idle|random] [-render]
  romtool trace <rom.rk32|game> [-frames N] [-max M]
  romtool verify <match.replay> <rom.rk32|game>
  romtool screenshot <rom.rk32|game> <out.png> [-frames N] [-input random] [-scale S]
  romtool list`)
	os.Exit(2)
}

func screenshot(args []string) {
	fs := flag.NewFlagSet("screenshot", flag.ExitOnError)
	frames := fs.Int("frames", 600, "frames to run before capturing")
	input := fs.String("input", "random", "input mode: idle or random")
	scale := fs.Int("scale", 4, "integer upscaling factor")
	if len(args) < 2 {
		usage()
	}
	_ = fs.Parse(args[2:])
	image := loadImage(args[0])
	console, err := image.Boot()
	if err != nil {
		log.Fatal(err)
	}
	for f := 0; f < *frames; f++ {
		var in uint16
		if *input == "random" {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d", f)
			in = uint16(h.Sum64())
		}
		console.StepFrame(in)
	}
	img := console.Image()
	if *scale > 1 {
		img = upscale(img, *scale)
	}
	f, err := os.Create(args[1])
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := png.Encode(f, img); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%dx%d after frame %d of %q)",
		args[1], img.Bounds().Dx(), img.Bounds().Dy(), console.FrameCount(), image.Title)
}

// upscale nearest-neighbour scales img by factor s.
func upscale(img *image.RGBA, s int) *image.RGBA {
	b := img.Bounds()
	out := image.NewRGBA(image.Rect(0, 0, b.Dx()*s, b.Dy()*s))
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			c := img.RGBAAt(x, y)
			for dy := 0; dy < s; dy++ {
				for dx := 0; dx < s; dx++ {
					out.SetRGBA(x*s+dx, y*s+dy, c)
				}
			}
		}
	}
	return out
}

func trace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	frames := fs.Int("frames", 1, "frames to trace")
	max := fs.Int("max", 200, "maximum instructions to print")
	if len(args) < 1 {
		usage()
	}
	_ = fs.Parse(args[1:])
	image := loadImage(args[0])
	console, err := image.Boot()
	if err != nil {
		log.Fatal(err)
	}
	printed := 0
	console.SetTrace(func(e vm.TraceEvent) {
		if printed >= *max {
			return
		}
		printed++
		fmt.Printf("f%-4d c%-6d 0x%04X: %s\n", e.Frame, e.Cycle, e.PC, vm.Disassemble(e.Instr))
	})
	for f := 0; f < *frames; f++ {
		console.StepFrame(0)
	}
	fmt.Printf("-- %d frame(s), last frame ran %d cycles, state %016x\n",
		*frames, console.CyclesLastFrame(), console.StateHash())
}

func verify(args []string) {
	if len(args) < 2 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		log.Fatal(err)
	}
	rlog, err := replay.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	image := loadImage(args[1])
	console, err := image.Boot()
	if err != nil {
		log.Fatal(err)
	}
	if err := rlog.Verify(console); err != nil {
		log.Fatalf("VERIFY FAILED: %v", err)
	}
	fmt.Printf("replay of %q verified: %d frames, final state %016x\n",
		rlog.Game, len(rlog.Inputs), rlog.Final)
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	title := fs.String("title", "", "ROM title (defaults to the source filename)")
	seed := fs.Uint("seed", 1, "LFSR seed baked into the header")
	if len(args) < 2 {
		usage()
	}
	src, out := args[0], args[1]
	_ = fs.Parse(args[2:])

	text, err := os.ReadFile(src)
	if err != nil {
		log.Fatal(err)
	}
	name := *title
	if name == "" {
		name = src
	}
	image, err := rom.AssembleROM(name, string(text), uint32(*seed))
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, image.Encode(), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: %d bytes of code, entry 0x%04X", out, len(image.Code), image.Entry)
}

func loadImage(path string) *rom.ROM {
	// Accept either a file path or a built-in game name.
	if data, err := os.ReadFile(path); err == nil {
		image, err := rom.Decode(data)
		if err != nil {
			log.Fatal(err)
		}
		return image
	}
	image, err := games.Load(path)
	if err != nil {
		log.Fatalf("%q is neither a readable file nor a built-in game", path)
	}
	return image
}

func dis(args []string) {
	if len(args) < 1 {
		usage()
	}
	image := loadImage(args[0])
	fmt.Printf("; %s (entry 0x%04X)\n", image.Title, image.Entry)
	fmt.Print(vm.DisassembleCode(image.Code, image.LoadAddr))
}

func info(args []string) {
	if len(args) < 1 {
		usage()
	}
	image := loadImage(args[0])
	h := fnv.New64a()
	h.Write(image.Code)
	fmt.Printf("title:     %s\n", image.Title)
	fmt.Printf("entry:     0x%04X\n", image.Entry)
	fmt.Printf("load addr: 0x%04X\n", image.LoadAddr)
	fmt.Printf("seed:      0x%08X\n", image.Seed)
	fmt.Printf("code:      %d bytes (%d instructions)\n", len(image.Code), len(image.Code)/4)
	fmt.Printf("code hash: %016x\n", h.Sum64())
}

func export(args []string) {
	if len(args) < 2 {
		usage()
	}
	image, err := games.Load(args[0])
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(args[1], image.Encode(), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%s)", args[1], image.Title)
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	frames := fs.Int("frames", 600, "frames to execute")
	input := fs.String("input", "idle", "input mode: idle or random")
	render := fs.Bool("render", false, "print the final screen")
	if len(args) < 1 {
		usage()
	}
	_ = fs.Parse(args[1:])
	image := loadImage(args[0])
	console, err := image.Boot()
	if err != nil {
		log.Fatal(err)
	}
	console.EnableDebugLog() // the run summary reports SYS events
	for f := 0; f < *frames; f++ {
		var in uint16
		if *input == "random" {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d", f)
			in = uint16(h.Sum64())
		}
		console.StepFrame(in)
	}
	if *render {
		fmt.Print(console.RenderASCII(2))
	}
	fmt.Printf("%s: %d frames, halted=%v, overruns=%d, state hash %016x\n",
		image.Title, console.FrameCount(), console.Halted(), console.Overruns(), console.StateHash())
	if events := console.DebugLog(); len(events) > 0 {
		fmt.Printf("%d SYS events; last: frame %d code %d value %d\n",
			len(events), events[len(events)-1].Frame, events[len(events)-1].Code, events[len(events)-1].Value)
	}
}

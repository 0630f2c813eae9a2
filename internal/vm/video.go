package vm

import (
	"image"
	"image/color"
	"strings"
)

// Video device: a 128x96 byte-per-pixel framebuffer at VRAMBase, row-major.
// Pixel values index a fixed 16-color palette (values above 15 wrap). The
// console renders whatever the game wrote; the sync layer never looks at it
// (the paper's VM translates source-platform output to the target platform —
// here: ASCII for terminals and image.RGBA for anything richer).

// Palette is the console's fixed 16-color palette (RGBA), loosely modelled
// on classic 8-bit home-computer palettes.
var Palette = [16]color.RGBA{
	{0x00, 0x00, 0x00, 0xFF}, // 0 black
	{0xFF, 0xFF, 0xFF, 0xFF}, // 1 white
	{0x88, 0x00, 0x00, 0xFF}, // 2 red
	{0xAA, 0xFF, 0xEE, 0xFF}, // 3 cyan
	{0xCC, 0x44, 0xCC, 0xFF}, // 4 purple
	{0x00, 0xCC, 0x55, 0xFF}, // 5 green
	{0x00, 0x00, 0xAA, 0xFF}, // 6 blue
	{0xEE, 0xEE, 0x77, 0xFF}, // 7 yellow
	{0xDD, 0x88, 0x55, 0xFF}, // 8 orange
	{0x66, 0x44, 0x00, 0xFF}, // 9 brown
	{0xFF, 0x77, 0x77, 0xFF}, // 10 light red
	{0x33, 0x33, 0x33, 0xFF}, // 11 dark grey
	{0x77, 0x77, 0x77, 0xFF}, // 12 grey
	{0xAA, 0xFF, 0x66, 0xFF}, // 13 light green
	{0x00, 0x88, 0xFF, 0xFF}, // 14 light blue
	{0xBB, 0xBB, 0xBB, 0xFF}, // 15 light grey
}

// asciiRamp maps palette indices to terminal characters, dark to bright.
const asciiRamp = " #.%*+:o@xOX=-$&"

// Pixel returns the palette index at (x, y); out-of-range coordinates read
// as 0.
func (c *Console) Pixel(x, y int) byte {
	if x < 0 || x >= ScreenW || y < 0 || y >= ScreenH {
		return 0
	}
	return c.mem[VRAMBase+y*ScreenW+x] & 0x0F
}

// Image renders the framebuffer through the palette.
func (c *Console) Image() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, ScreenW, ScreenH))
	for y := 0; y < ScreenH; y++ {
		for x := 0; x < ScreenW; x++ {
			img.SetRGBA(x, y, Palette[c.Pixel(x, y)])
		}
	}
	return img
}

// RenderASCII draws the framebuffer as text, sampling every step-th pixel in
// both axes (step <= 0 defaults to 2, giving a 64x48 character screen).
func (c *Console) RenderASCII(step int) string {
	if step <= 0 {
		step = 2
	}
	var b strings.Builder
	b.Grow((ScreenW/step + 1) * (ScreenH / step))
	for y := 0; y < ScreenH; y += step {
		for x := 0; x < ScreenW; x += step {
			b.WriteByte(asciiRamp[c.Pixel(x, y)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

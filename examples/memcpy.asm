; Byte-wise memcpy, standalone: a self-loop with a store in its body.
;
; Run it (the assembler preloads the .byte data image):
;
;     repro iss examples/memcpy.asm --reg r1=0x200 --reg r2=0x100 --reg r3=12
;
; CI diffs its output against examples/memcpy.expected.
;
; Calling convention: r1 = dst, r2 = src, r3 = byte count.
; r5 accumulates the copied bytes so the output shows what was moved.
; lint: live-in r1, r2, r3

memcpy:
    ldi   r5, 0
    beq   r3, r0, done
loop:
    ldb   r4, 0(r2)
    stb   r4, 0(r1)
    ldb   r6, 0(r1)         ; read the copy back
    add   r5, r5, r6
    addi  r1, r1, 1
    addi  r2, r2, 1
    addi  r3, r3, -1
    bne   r3, r0, loop
done:
    halt

; Twelve source bytes at 0x100.
    .org  0x100
source:
    .byte 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb

; 16-bit ones'-complement checksum over a byte buffer, standalone.
;
; Run it (the assembler preloads the .word/.byte data image):
;
;     repro iss examples/checksum.asm --reg r1=0x100 --reg r2=8
;
; CI diffs its output against examples/checksum.expected.
;
; or lint it without running:
;
;     repro lint examples/checksum.asm
;
; Calling convention: r1 = buffer address, r2 = length; result in r1.
; lint: live-in r1, r2

checksum:
    ldi   r3, 0             ; running total
    mov   r4, r1            ; cursor
    add   r5, r1, r2        ; end = addr + len
    addi  r6, r0, 1
    and   r6, r2, r6        ; odd = len & 1
    sub   r5, r5, r6        ; even_end
loop:
    beq   r4, r5, tail
    ldb   r7, 0(r4)
    shl   r7, r7, 8
    ldb   r8, 1(r4)
    or    r7, r7, r8
    add   r3, r3, r7
    addi  r4, r4, 2
    jal   r0, loop
tail:
    beq   r6, r0, fold
    ldb   r7, 0(r4)
    shl   r7, r7, 8
    add   r3, r3, r7
fold:
    ldi   r9, 0xffff
fold_loop:
    shr   r7, r3, 16
    beq   r7, r0, done
    and   r3, r3, r9
    add   r3, r3, r7
    jal   r0, fold_loop
done:
    xor   r1, r3, r9        ; ones' complement of the folded sum
    halt

; Eight sample payload bytes at 0x100.
    .org  0x100
payload:
    .byte 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04

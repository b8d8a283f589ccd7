; Iterative Fibonacci, standalone: a self-loop closed by bne.
;
; Run it:
;
;     repro iss examples/fibonacci.asm --reg r1=24
;
; CI diffs its output against examples/fibonacci.expected.
;
; Calling convention: r1 = n; result (fib(n)) in r1.
; lint: live-in r1

fib:
    ldi   r2, 0             ; a
    ldi   r3, 1             ; b
    beq   r1, r0, return_a
loop:
    add   r4, r2, r3
    mov   r2, r3
    mov   r3, r4
    addi  r1, r1, -1
    bne   r1, r0, loop
return_a:
    mov   r1, r2
    halt

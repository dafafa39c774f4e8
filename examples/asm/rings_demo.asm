; rings_demo.asm — two processes exercise the ring mechanisms:
;  * alice's program calls down into a gated ring-2 subsystem that tallies
;    calls in data only ring <= 2 may write;
;  * mallory's program tries to write the tally directly and is killed.
;
;   ./build/tools/ringsim --trace examples/asm/rings_demo.asm
;
; Add --stats to see the processor's counters, and --no-fastpath to run
; the reference interpreter instead of the block engine and its host-side
; caches — the simulated cycles are identical either way.
;
;; acl subsystem * procedure 2 2 5
;; acl tally * data 2 4
;; acl aprog * procedure 4 4
;; acl mprog * procedure 4 4
;; start aprog astart 4 alice
;; start mprog mstart 4 mallory

        .segment subsystem
        .gates 1
gate:   tra   body
body:   aos   tptr,*          ; count the call (ring-2 write)
        lda   tptr,*
        ret   pr7|0
tptr:   .its  2, tally, 0

        .segment tally
        .word 0

        .segment aprog
astart: epp   pr2, gptr,*
        call  pr2|0            ; 4 -> 2 through the gate
        epp   pr2, gptr,*
        call  pr2|0
        mme   0                ; exits with the tally (2)
gptr:   .its  4, subsystem, 0

        .segment mprog
mstart: ldai  999
        sta   tptr2,*          ; ring 4 writing ring-2 data: killed here
        mme   0
tptr2:  .its  4, tally, 0

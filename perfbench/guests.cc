#include "perfbench/guests.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/base/xorshift.h"

namespace perfbench {

using rings::StrFormat;

namespace {

constexpr uint64_t kKeySpan = 512;    // keys are drawn from [0, kKeySpan)
constexpr uint64_t kTableWords = 2048;  // > kKeySpan + the largest count

uint64_t PackRequest(uint64_t op, uint64_t count, uint64_t key, uint64_t value) {
  return (op << 48) | (count << 32) | (key << 16) | value;
}

uint64_t Encode(uint64_t value) { return (value * 5 + 3) & 0xFFFF; }

// The client, parser, store and codec segments. Word offsets into cdata
// and pdata are fixed by the data segments' layout below.
constexpr char kCompartmentCode[] = R"(
        .segment client
start:
next:   ldx   x2, idxp,*
        epp   pr4, reqp,*
        lda   pr4|0,x2          ; next request word; 0 ends the script
        tze   done
        sta   curp,*
        ars   48
        adai  -2
        tmi   send              ; get / put
        tze   encode
        adai  -3
        tze   hread
        adai  -1
        tze   hcall
        tra   hforge
encode: epp   pr1, cargp,*
        epp   pr2, codecp,*
        call  pr2|0             ; upward call into the ring-5 codec sandbox
send:   epp   pr1, argp,*
        epp   pr2, parserp,*
        call  pr2|0             ; 4 -> 3 through the parser's gate
        lda   sump,*
        ada   replyp,*
        sta   sump,*
        aos   idxp,*
        tra   next
done:   lda   sump,*
        mme   0                 ; exit with the reply checksum
hread:  lda   kvp4,*            ; ring 4 reading ring-1 data
        mme   0
hcall:  epp   pr1, argp,*
        epp   pr2, storep4,*
        call  pr2|0             ; ring 4 calling a gate that ends at ring 3
        mme   0
hforge: epp   pr1, hargp,*
        epp   pr2, parserp,*
        call  pr2|0             ; reply pointer forged into ring-1 data
        mme   0
reqp:   .its  4, cdata, reqs
curp:   .its  4, cdata, 3
sump:   .its  4, cdata, 0
replyp: .its  4, cdata, 1
idxp:   .its  4, cdata, 2
argp:   .its  4, cdata, 4
cargp:  .its  4, cdata, 9
hargp:  .its  4, cdata, 12
parserp: .its 4, parser, 0
codecp: .its  4, codec, 0
storep4: .its 4, store, 0
kvp4:   .its  4, kv, 0

        .segment parser
        .gates 1
pgate:  tra   pbody
pbody:  spp   pr7, sv7p,*       ; save the return pointer
        spp   pr1, sv1p,*       ; save the client's argument list
        lda   pr1|1,*           ; request, validated at the caller's ring
        sta   wreq,*
        ars   48
        sta   wop,*
        lda   wreq,*
        ars   32
        ana   m16
        sta   wcnt,*
        lda   wreq,*
        ars   16
        ana   m16
        sta   wkey,*
        lda   wreq,*
        ana   m16
        sta   wval,*
        stz   wsum,*
ploop:  epp   pr1, sargp,*
        epp   pr2, storep,*
        call  pr2|0             ; 3 -> 1 through the store's gate
        lda   wsum,*
        ada   wres,*
        sta   wsum,*
        aos   wkey,*
        lda   wcnt,*
        adai  -1
        sta   wcnt,*
        tnz   ploop
        epp   pr1, rs1p,*       ; the client's argument list again
        lda   wsum,*
        sta   pr1|2,*           ; reply, validated at the caller's ring
        epp   pr7, rs7p,*
        ret   pr7|0
m16:    .word 65535
sv7p:   .its  3, pdata, 0
sv1p:   .its  3, pdata, 1
rs7p:   .its  3, pdata, 0, *
rs1p:   .its  3, pdata, 1, *
wreq:   .its  3, pdata, 2
wop:    .its  3, pdata, 3
wcnt:   .its  3, pdata, 4
wkey:   .its  3, pdata, 5
wval:   .its  3, pdata, 6
wsum:   .its  3, pdata, 7
wres:   .its  3, pdata, 8
sargp:  .its  3, pdata, 9
storep: .its  3, store, 0

        .segment pdata
        .block 9                ; saved pointers and the decoded request
        .word 4                 ; 9: store arguments op, key, value, result
        .its  3, pdata, 3
        .its  3, pdata, 5
        .its  3, pdata, 6
        .its  3, pdata, 8
        .word 1
        .word 1
        .word 1
        .word 1

        .segment store
        .gates 1
sgate:  tra   sbody
sbody:  ldx   x1, pr1|2,*       ; key
        epp   pr3, kvp,*
        lda   pr3|0,x1
        sta   pr1|4,*           ; result = current value
        lda   pr1|1,*
        tze   sret              ; get
        lda   pr3|0,x1
        ada   pr1|3,*
        sta   pr3|0,x1          ; put: value += argument
sret:   ret   pr7|0
kvp:    .its  1, kv, 0

        .segment codec
        .gates 1
cgate:  tra   cbody
cbody:  lda   pr1|1,*           ; the request (copied in by the supervisor)
        ana   mhi
        sta   scrp,*
        lda   pr1|1,*
        ana   mval
        mpy   five
        adai  3
        ana   mval
        ora   scrp,*
        sta   pr1|1,*           ; copied back out on return
        ret   pr7|0
mhi:    .word 0x7FFFFFFFFFFF0000
mval:   .word 65535
five:   .word 5
scrp:   .its  5, cscr, 0

        .segment cscr
        .word 0
)";

}  // namespace

Script MakeScript(uint64_t seed, uint64_t index, const ScriptShape& shape,
                  uint64_t hostile_op) {
  rings::Xorshift rng(seed * 0x100000001B3ull + index);
  Script script;
  auto add_class = [&](uint64_t op, int n) {
    for (int k = 0; k < n; ++k) {
      const uint64_t count = shape.count_base + shape.count_step * static_cast<uint64_t>(k);
      script.requests.push_back(
          PackRequest(op, count, rng.Below(kKeySpan), rng.Below(uint64_t{1} << 16)));
    }
  };
  add_class(kGet, shape.gets);
  add_class(kPut, shape.puts);
  add_class(kEncode, shape.encodes);
  for (size_t i = script.requests.size(); i > 1; --i) {
    std::swap(script.requests[i - 1], script.requests[rng.Below(i)]);
  }
  if (hostile_op != 0) {
    script.requests.push_back(
        PackRequest(hostile_op, 64, rng.Below(kKeySpan), rng.Below(uint64_t{1} << 16)));
    script.hostile_op = hostile_op;
  }
  return script;
}

std::string CompartmentSource(const Script& script, bool flat) {
  std::string out = StrFormat(
      ";; acl client * procedure 4 4\n"
      ";; acl cdata * data 4 4\n"
      ";; acl parser * procedure %s\n"
      ";; acl pdata * data %s\n"
      ";; acl store * procedure %s\n"
      ";; acl kv * data %s\n"
      ";; acl codec * procedure 5 5 5\n"
      ";; acl cscr * data 5 5\n"
      ";; start client start 4\n",
      flat ? "4 4 4" : "3 3 4", flat ? "4 4" : "3 3", flat ? "4 4 4" : "1 1 3",
      flat ? "4 4" : "1 1");
  out += kCompartmentCode;
  out += R"(
        .segment cdata
        .word 0                 ; 0: checksum
        .word 0                 ; 1: reply
        .word 0                 ; 2: request index
        .word 0                 ; 3: current request
        .word 2                 ; 4: parser arguments request, reply
        .its  4, cdata, 3
        .its  4, cdata, 1
        .word 1
        .word 1
        .word 1                 ; 9: codec arguments request
        .its  4, cdata, 3
        .word 1
        .word 2                 ; 12: forged arguments request, reply
        .its  4, cdata, 3
        .its  4, kv, 0
        .word 1
        .word 1
reqs:
)";
  for (const uint64_t request : script.requests) {
    out += StrFormat("        .word 0x%016llx\n", static_cast<unsigned long long>(request));
  }
  out += "        .word 0\n";
  out += StrFormat("\n        .segment kv\n        .block %llu\n",
                   static_cast<unsigned long long>(kTableWords));
  return out;
}

ScriptExpect ModelScript(const Script& script) {
  std::vector<uint64_t> table(kTableWords, 0);
  ScriptExpect expect;
  for (const uint64_t request : script.requests) {
    const uint64_t op = request >> 48;
    const uint64_t count = (request >> 32) & 0xFFFF;
    const uint64_t key = (request >> 16) & 0xFFFF;
    uint64_t value = request & 0xFFFF;
    if (op == kReadStore) {
      expect.cause = rings::TrapCause::kReadViolation;
      return expect;
    }
    if (op == kCallStore) {
      expect.cause = rings::TrapCause::kExecuteViolation;
      return expect;
    }
    if (op == kEncode) {
      value = Encode(value);
    }
    uint64_t reply = 0;
    for (uint64_t i = 0; i < count; ++i) {
      reply += table[key + i];
      if (op != kGet) {
        table[key + i] += value;
      }
    }
    if (op == kForgeReply) {
      expect.cause = rings::TrapCause::kWriteViolation;
      return expect;
    }
    expect.checksum += reply;
  }
  return expect;
}

std::string PagerSource(uint64_t seed, int iterations) {
  rings::Xorshift rng(seed ^ 0x7061676572ull);
  const uint64_t stride = 16 * (2 * rng.Below(2048) + 1);
  return StrFormat(R"(;; acl pager * procedure 4 4
;; acl pd * data 4 4
;; acl big * data 4 4
;; segment big 65536 paged demand
;; start pager start 4
        .segment pager
start:  epp   pr3, bigp,*
loop:   ldx   x1, offp,*
        lda   pr3|0,x1
        ada   cntp,*
        sta   pr3|0,x1          ; store into demand-zero paged data
        lda   offp,*
        adai  %llu
        ana   mask
        sta   offp,*
        aos   cntp,*
        lda   cntp,*
        sba   lim
        tmi   loop
        lda   pr3|0,x1
        mme   0
mask:   .word 65535
lim:    .word %d
bigp:   .its  4, big, 0
offp:   .its  4, pd, 0
cntp:   .its  4, pd, 1

        .segment pd
        .word 0
        .word 0
)",
                   static_cast<unsigned long long>(stride), iterations);
}

std::string SmcSource(uint64_t seed, int iterations) {
  rings::Xorshift rng(seed ^ 0x736d63ull);
  const uint64_t a = 1 + rng.Below(1000);
  const uint64_t b = 1 + rng.Below(1000);
  return StrFormat(R"(;; acl smc * procedure 4 4 write
;; acl sd * data 4 4
;; start smc start 4
        .segment smc
start:  lda   i1
        era   i2
        sta   xp,*              ; toggle mask between the two patches
        lda   i1
        sta   np,*
loop:   lda   np,*
        sta   site              ; store an instruction into running code
        era   xp,*
        sta   np,*
        lda   accp,*
site:   nop
        sta   accp,*
        aos   cp,*
        lda   cp,*
        sba   lim
        tmi   loop
        lda   accp,*
        mme   0
i1:     adai  %llu
i2:     adai  %llu
lim:    .word %d
xp:     .its  4, sd, 0
np:     .its  4, sd, 1
accp:   .its  4, sd, 2
cp:     .its  4, sd, 3

        .segment sd
        .block 4
)",
                   static_cast<unsigned long long>(a), static_cast<unsigned long long>(b),
                   iterations);
}

}  // namespace perfbench

(* The load generator's workload model and correctness oracle.

   A generator owns a set of client connections, each driving its own
   tenants over riommu-wire/1. It is transport-agnostic: it encodes
   requests into each connection's send buffer and decodes responses
   from its receive buffer, and the caller moves the bytes — over a
   unix socket to a riommu-serve process, or in memory through the
   service's own Conn/Dispatch modules (the replay).

   The oracle rests on one property of the service: a tenant is pinned
   to one shard and each shard executes its batch in arrival order, so a
   tenant's requests execute in the order the generator sent them. The
   per-tenant model is therefore updated in send order: an iova leaves
   the live set when its unmap is sent, and any translate sent after
   that must fault until a later map (whose iova is only known from its
   response) brings it back. *)

module Wire = Rio_serve_net.Wire

type kind = Pipelined | Churn | Paced

type spec = {
  name : string;
  kind : kind;
  conns : int;
  tenants_per_conn : int;
  pages : int;  (* premapped pages per tenant; churn's live-set target *)
  inflight : int;  (* closed loop: requests kept in flight per connection *)
  rounds : bool;
      (* closed loop refills a connection only when all its requests are
         answered, so every round reaches the server as one full batch *)
  rate : float;  (* open loop: requests per second *)
}

let specs =
  [
    {
      name = "translate-pipelined";
      kind = Pipelined;
      conns = 2;
      tenants_per_conn = 1;
      pages = 64;
      inflight = 64;
      rounds = true;
      rate = 0.;
    };
    {
      name = "map-churn";
      kind = Churn;
      conns = 2;
      tenants_per_conn = 4;
      pages = 1024;
      inflight = 16;
      rounds = false;
      rate = 0.;
    };
    {
      name = "translate-paced";
      kind = Paced;
      conns = 1;
      tenants_per_conn = 1;
      pages = 64;
      inflight = 1;
      rounds = false;
      rate = 20_000.;
    };
  ]

let spec_of_name n = List.find_opt (fun s -> s.name = n) specs
let page = 4096
let sg_segs = 8
let sg_limit = 16

(* Each tenant maps frames from its own 64 GiB physical range, so a
   phys returned to the wrong tenant is recognisable on sight. *)
let phys_shift = 36
let owner_of_phys p = (p lsr phys_shift) - 1

(* {1 Latency histograms}

   Log-linear buckets, 128 per power of two (0.8% wide), exact below
   128 ns, up to 68 s. A quantile interpolates linearly inside its bucket by rank,
   so it is continuous in the data rather than snapped to bucket
   edges. Recording is two shifts and an increment. *)

let sub_bits = 7
let max_bits = 36 (* values up to 2^36 ns = 68 s; larger ones clamp *)
let hist_buckets = (max_bits - sub_bits + 1) lsl sub_bits

type hist = { counts : int array; mutable total : int }

let hist_create () = { counts = Array.make hist_buckets 0; total = 0 }

let rec msb v n = if v <= 1 then n else msb (v lsr 1) (n + 1)

let bucket v =
  if v < 1 lsl sub_bits then max v 0
  else if v >= 1 lsl max_bits then hist_buckets - 1
  else
    let shift = msb v 0 - sub_bits in
    ((shift + 1) lsl sub_bits) + ((v lsr shift) - (1 lsl sub_bits))

let bucket_lo b =
  if b < 1 lsl sub_bits then b
  else
    let shift = (b lsr sub_bits) - 1 in
    ((1 lsl sub_bits) + (b land ((1 lsl sub_bits) - 1))) lsl shift

let bucket_width b = if b < 1 lsl sub_bits then 1 else 1 lsl ((b lsr sub_bits) - 1)

let hist_add h v =
  let b = bucket v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1

let hist_merge ~into h =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
  into.total <- into.total + h.total

let quantile h q =
  if h.total = 0 then 0.
  else begin
    let rank = q *. float_of_int h.total in
    let b = ref 0 and cum = ref 0 in
    while !b < hist_buckets - 1 && float_of_int (!cum + h.counts.(!b)) < rank do
      cum := !cum + h.counts.(!b);
      incr b
    done;
    let inside = h.counts.(!b) in
    let f = if inside = 0 then 0. else (rank -. float_of_int !cum) /. float_of_int inside in
    float_of_int (bucket_lo !b) +. (f *. float_of_int (bucket_width !b))
  end

(* {1 Tenants} *)

type tenant = {
  wire : int;
  mutable phys_next : int;
  phys_of : (int, int) Hashtbl.t;  (* live iova -> phys, in send order *)
  live : int array;  (* dense set of live iovas open to translate/unmap *)
  pos : (int, int) Hashtbl.t;  (* iova -> index in [live] *)
  mutable nlive : int;
  mutable pending_pages : int;  (* pages of maps sent but not answered *)
}

let tenant_create ~wire ~pages =
  {
    wire;
    phys_next = (wire + 1) lsl phys_shift;
    phys_of = Hashtbl.create (2 * pages);
    live = Array.make ((2 * pages) + 1024) 0;
    pos = Hashtbl.create (2 * pages);
    nlive = 0;
    pending_pages = 0;
  }

let live_add t iova phys =
  Hashtbl.replace t.phys_of iova phys;
  Hashtbl.replace t.pos iova t.nlive;
  t.live.(t.nlive) <- iova;
  t.nlive <- t.nlive + 1

let live_remove t iova =
  let i = Hashtbl.find t.pos iova in
  let last = t.live.(t.nlive - 1) in
  t.live.(i) <- last;
  Hashtbl.replace t.pos last i;
  Hashtbl.remove t.pos iova;
  Hashtbl.remove t.phys_of iova;
  t.nlive <- t.nlive - 1

(* {1 Connections} *)

(* What a pending translate expects. *)
let exp_phys = 0 (* exactly [s_a] *)
let exp_fault = 1 (* fault-after-unmap probe *)
let exp_cross = 2 (* cross-tenant probe: see [check_translate] *)

(* [s_a] of a cross-tenant probe: the probing tenant's own phys for the
   iova when its model maps it, else one of these *)
let cross_maybe = -1 (* unmapped, but a map of its own is unanswered *)
let cross_unmapped = -2 (* unmapped: must fault *)
let slots = 1024
let slot_free = -1

type conn = {
  idx : int;
  bdf : int;
  tenants : tenant array;
  mutable rr : int;  (* round-robin tenant cursor *)
  sbuf : Bytes.t;
  mutable soff : int;  (* bytes [soff, slen) wait to be written *)
  mutable slen : int;
  mutable unsent_id : int;  (* first req_id not yet fully written *)
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  mutable next_id : int;
  mutable inflight : int;
  s_op : int array;
  s_tenant : int array;
  s_a : int array;
  s_b : int array;
  s_t : int array;  (* send instant (closed loop) or due instant (open) *)
  resp : Wire.resp;
}

let conn_create ~idx ~tenants =
  {
    idx;
    bdf = 0x100 * (idx + 1);
    tenants;
    rr = 0;
    sbuf = Bytes.create (1 lsl 18);
    soff = 0;
    slen = 0;
    unsent_id = 0;
    rbuf = Bytes.create (1 lsl 18);
    rpos = 0;
    rlen = 0;
    next_id = 0;
    inflight = 0;
    s_op = Array.make slots slot_free;
    s_tenant = Array.make slots 0;
    s_a = Array.make slots 0;
    s_b = Array.make slots 0;
    s_t = Array.make slots 0;
    resp = Wire.create_resp ~sg_limit;
  }

(* {1 The generator} *)

type t = {
  spec : spec;
  rng : Random.State.t;
  conns : conn array;
  all_tenants : tenant array;
  mutable sent : int;
  mutable failed : int;
  mutable faults_seen : int;
  mutable first_failures : string list;
  sent_by_op : int array;  (* indexed by wire op code *)
  (* steady-window accounting, active while [measuring]: the window is
     cut into [subwindows] equal slices, each with its own latency
     histogram and response count, so a transient stall of the shared
     host moves one slice and not the median over slices *)
  mutable measuring : bool;
  mutable window_ops : int;
  mutable sub : int;
  sub_ops : int array;
  lat : hist array;
  (* optional per-request client spans *)
  mutable spans : Spans.t option;
}

let subwindows = 200
let span_send = 0
let span_recv = 1
let span_names = [| "client.send"; "client.recv" |]

let create (spec : spec) ~seed =
  let all_tenants =
    Array.init (spec.conns * spec.tenants_per_conn) (fun w ->
        tenant_create ~wire:w ~pages:spec.pages)
  in
  let conns =
    Array.init spec.conns (fun i ->
        conn_create ~idx:i
          ~tenants:
            (Array.sub all_tenants (i * spec.tenants_per_conn)
               spec.tenants_per_conn))
  in
  {
    spec;
    rng = Random.State.make [| seed; Hashtbl.hash spec.name |];
    conns;
    all_tenants;
    sent = 0;
    failed = 0;
    faults_seen = 0;
    first_failures = [];
    sent_by_op = Array.make 8 0;
    measuring = false;
    window_ops = 0;
    sub = 0;
    sub_ops = Array.make subwindows 0;
    lat = Array.init subwindows (fun _ -> hist_create ());
    spans = None;
  }

let fail g msg =
  g.failed <- g.failed + 1;
  if List.length g.first_failures < 8 then g.first_failures <- msg :: g.first_failures

let hello c =
  c.slen <- c.slen + Wire.encode_hello c.sbuf ~pos:c.slen ~bdf:c.bdf ~flags:0

(* Reserve a pending slot for the next request of [c]. *)
let begin_req g c ~op ~tenant ~a ~b ~t =
  let id = c.next_id in
  let s = id land (slots - 1) in
  if c.s_op.(s) <> slot_free then failwith "perfgen: more than 1024 requests in flight";
  c.next_id <- id + 1;
  c.inflight <- c.inflight + 1;
  c.s_op.(s) <- op;
  c.s_tenant.(s) <- tenant;
  c.s_a.(s) <- a;
  c.s_b.(s) <- b;
  c.s_t.(s) <- t;
  g.sent <- g.sent + 1;
  g.sent_by_op.(op) <- g.sent_by_op.(op) + 1;
  id

let send_map g c ti ~t =
  let tn = c.tenants.(ti) in
  let phys = tn.phys_next in
  tn.phys_next <- phys + page;
  tn.pending_pages <- tn.pending_pages + 1;
  let id = begin_req g c ~op:Wire.op_map ~tenant:ti ~a:phys ~b:0 ~t in
  c.slen <-
    Wire.encode_map c.sbuf ~pos:c.slen ~tenant:tn.wire ~req_id:id ~phys ~bytes:page

let seg_phys = Array.make sg_segs 0
let seg_bytes = Array.make sg_segs page

let send_map_sg g c ti ~t =
  let tn = c.tenants.(ti) in
  let phys = tn.phys_next in
  tn.phys_next <- phys + (sg_segs * page);
  tn.pending_pages <- tn.pending_pages + sg_segs;
  for k = 0 to sg_segs - 1 do
    seg_phys.(k) <- phys + (k * page)
  done;
  let id = begin_req g c ~op:Wire.op_map_sg ~tenant:ti ~a:phys ~b:0 ~t in
  c.slen <-
    Wire.encode_map_sg c.sbuf ~pos:c.slen ~tenant:tn.wire ~req_id:id ~seg_phys
      ~seg_bytes ~n:sg_segs

let send_translate g c ti ~iova ~expect ~a ~t =
  let tn = c.tenants.(ti) in
  let id = begin_req g c ~op:Wire.op_translate ~tenant:ti ~a ~b:expect ~t in
  c.slen <-
    Wire.encode_translate c.sbuf ~pos:c.slen ~tenant:tn.wire ~req_id:id ~iova
      ~write:(id land 1 = 0)

let send_unmap g c ti ~iova ~t =
  let tn = c.tenants.(ti) in
  live_remove tn iova;
  let id = begin_req g c ~op:Wire.op_unmap ~tenant:ti ~a:iova ~b:0 ~t in
  c.slen <- Wire.encode_unmap c.sbuf ~pos:c.slen ~tenant:tn.wire ~req_id:id ~iova

let pick_live g tn = tn.live.(Random.State.int g.rng tn.nlive)

let next_tenant c =
  let ti = c.rr in
  c.rr <- (if ti + 1 = Array.length c.tenants then 0 else ti + 1);
  ti

(* {1 Set-up: premap each tenant's working set} *)

let setup_done g =
  Array.for_all (fun tn -> tn.nlive >= g.spec.pages) g.all_tenants
  && Array.for_all (fun c -> c.inflight = 0) g.conns

(* Keep up to 64 maps in flight per connection until every tenant has
   [pages] live mappings. *)
let fill_setup g c ~t =
  let n = Array.length c.tenants in
  let tried = ref 0 in
  while c.inflight < 64 && !tried < n do
    let tn = c.tenants.(c.rr) in
    if tn.nlive + tn.pending_pages < g.spec.pages then send_map g c c.rr ~t
    else begin
      incr tried;
      ignore (next_tenant c)
    end
  done

(* {1 Steady state} *)

let send_translate_live g c ti ~t =
  let tn = c.tenants.(ti) in
  if tn.nlive = 0 then send_map g c ti ~t else
  let iova = pick_live g tn in
  send_translate g c ti ~iova ~expect:exp_phys ~a:(Hashtbl.find tn.phys_of iova) ~t

(* Churn mix per request slot: 40% translate of a live page, 5%
   fault-after-unmap probe (an unmap and a translate of the same iova,
   back to back), 5% cross-tenant probe, 50% mutation. A mutation is an
   unmap while the tenant's live set (plus pages still being mapped) is
   above its target, else a 1-page map (2/3) or an 8-segment map_sg
   (1/3). An 8-page map_sg takes eight unmaps to retire, so a fixed
   map/unmap split could not hold the live set steady; this rule holds
   it at the target and sets the realised mix (about 47% translate, 40%
   unmap, 9% map and 4% map_sg of requests, probes included; reported
   per run as sent_by_op). *)
let send_churn g c ~t =
  let ti = next_tenant c in
  let tn = c.tenants.(ti) in
  let r = Random.State.float g.rng 1.0 in
  if tn.nlive = 0 then send_map g c ti ~t
  else if r < 0.40 then send_translate_live g c ti ~t
  else if r < 0.45 then begin
    let iova = pick_live g tn in
    send_unmap g c ti ~iova ~t;
    send_translate g c ti ~iova ~expect:exp_fault ~a:0 ~t
  end
  else if r < 0.50 then begin
    (* an iova live in some other tenant of this generator *)
    let others = Array.length g.all_tenants in
    let o = g.all_tenants.((tn.wire + 1 + Random.State.int g.rng (others - 1)) mod others) in
    let iova = pick_live g o in
    let own =
      match Hashtbl.find_opt tn.phys_of iova with
      | Some p -> p
      | None -> if tn.pending_pages > 0 then cross_maybe else cross_unmapped
    in
    send_translate g c ti ~iova ~expect:exp_cross ~a:own ~t
  end
  else if tn.nlive + tn.pending_pages > g.spec.pages then
    send_unmap g c ti ~iova:(pick_live g tn) ~t
  else if Random.State.int g.rng 3 < 2 then send_map g c ti ~t
  else send_map_sg g c ti ~t

(* Closed loop: top the connection up to its in-flight target — at
   once, or in rounds: the whole window as one write once every request
   of the last round is answered. *)
let fill g c ~t =
  if (not g.spec.rounds) || c.inflight = 0 then
  while c.inflight < g.spec.inflight do
    match g.spec.kind with
    | Churn -> send_churn g c ~t
    | Pipelined | Paced -> send_translate_live g c (next_tenant c) ~t
  done

(* {1 Responses} *)

let check_translate g c s ~tenant =
  let r = c.resp in
  let tn = c.tenants.(tenant) in
  let expect = c.s_b.(s) and a = c.s_a.(s) in
  let ok = r.Wire.status = Wire.st_ok in
  if r.Wire.status = Wire.st_fault then g.faults_seen <- g.faults_seen + 1;
  if expect = exp_phys then begin
    if not (ok && r.Wire.r_phys = a) then
      fail g
        (Printf.sprintf "tenant %d translate: expected phys %#x, got %s %#x" tn.wire a
           (Wire.status_name r.Wire.status) r.Wire.r_phys)
  end
  else if expect = exp_fault then begin
    if r.Wire.status <> Wire.st_fault then
      fail g
        (Printf.sprintf "tenant %d translate after unmap: expected fault, got %s %#x"
           tn.wire (Wire.status_name r.Wire.status) r.Wire.r_phys)
  end
  else if ok then begin
    (* cross-tenant probe: never another tenant's frame; its own frame
       only where its own model maps that iova (or a map of its own was
       still unanswered when the probe went out) *)
    if owner_of_phys r.Wire.r_phys <> tn.wire then
      fail g
        (Printf.sprintf "tenant %d cross probe returned tenant %d's phys %#x" tn.wire
           (owner_of_phys r.Wire.r_phys) r.Wire.r_phys)
    else if a >= 0 && r.Wire.r_phys <> a then
      fail g (Printf.sprintf "tenant %d cross probe: wrong own phys" tn.wire)
    else if a = cross_unmapped then
      fail g (Printf.sprintf "tenant %d cross probe: phys for an unmapped iova" tn.wire)
  end
  else if r.Wire.status <> Wire.st_fault then
    fail g
      (Printf.sprintf "tenant %d cross probe: status %s" tn.wire
         (Wire.status_name r.Wire.status))
  else if a >= 0 then
    fail g (Printf.sprintf "tenant %d cross probe faulted on its own live page" tn.wire)

let learn_map g tn ~iova ~phys =
  if iova land (page - 1) <> 0 || Hashtbl.mem tn.phys_of iova then
    fail g (Printf.sprintf "tenant %d: map returned iova %#x twice or unaligned" tn.wire iova)
  else live_add tn iova phys

let handle_response g c ~now =
  let r = c.resp in
  let s = r.Wire.r_req_id land (slots - 1) in
  let op = c.s_op.(s) in
  if op = slot_free || op <> r.Wire.r_op then
    fail g (Printf.sprintf "conn %d: unexpected response op %d id %d" c.idx r.Wire.r_op r.Wire.r_req_id)
  else begin
    c.s_op.(s) <- slot_free;
    c.inflight <- c.inflight - 1;
    let tenant = c.s_tenant.(s) in
    let tn = c.tenants.(tenant) in
    let ok = r.Wire.status = Wire.st_ok in
    if op = Wire.op_translate then check_translate g c s ~tenant
    else if op = Wire.op_map then begin
      tn.pending_pages <- tn.pending_pages - 1;
      if ok then learn_map g tn ~iova:r.Wire.r_iova ~phys:c.s_a.(s)
      else fail g (Printf.sprintf "tenant %d map: %s" tn.wire (Wire.status_name r.Wire.status))
    end
    else if op = Wire.op_map_sg then begin
      tn.pending_pages <- tn.pending_pages - sg_segs;
      if ok && r.Wire.r_nseg = sg_segs then
        for k = 0 to sg_segs - 1 do
          learn_map g tn ~iova:r.Wire.r_iovas.(k) ~phys:(c.s_a.(s) + (k * page))
        done
      else fail g (Printf.sprintf "tenant %d map_sg: %s" tn.wire (Wire.status_name r.Wire.status))
    end
    else if not ok then
      fail g (Printf.sprintf "tenant %d unmap %#x: %s" tn.wire c.s_a.(s) (Wire.status_name r.Wire.status));
    if g.measuring then begin
      g.window_ops <- g.window_ops + 1;
      g.sub_ops.(g.sub) <- g.sub_ops.(g.sub) + 1;
      hist_add g.lat.(g.sub) (now - c.s_t.(s))
    end
  end

(* Decode every complete response in [c]'s receive buffer. [now] is the
   instant the bytes arrived; [clock] timestamps per-response spans. *)
let receive g c ~now ~clock =
  let continue = ref true in
  while !continue do
    let n = Wire.decode_response c.rbuf ~pos:c.rpos ~avail:(c.rlen - c.rpos) c.resp in
    if n > 0 then begin
      c.rpos <- c.rpos + n;
      handle_response g c ~now;
      match g.spans with
      | None -> ()
      | Some sp ->
          Spans.record sp ~kind:span_recv ~id:c.resp.Wire.r_req_id ~start:now
            ~stop:(clock ())
    end
    else begin
      if n < 0 then begin
        fail g (Printf.sprintf "conn %d: undecodable response (%d)" c.idx n);
        c.rpos <- c.rlen
      end;
      continue := false
    end
  done;
  if c.rpos = c.rlen then begin
    c.rpos <- 0;
    c.rlen <- 0
  end
  else if c.rpos > Bytes.length c.rbuf / 2 then begin
    Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
    c.rlen <- c.rlen - c.rpos;
    c.rpos <- 0
  end

(* The caller wrote [n] bytes from [soff]. Once the buffer is empty,
   every request encoded into it has left: close their send spans. *)
let wrote g c n ~now =
  c.soff <- c.soff + n;
  if c.soff = c.slen then begin
    c.soff <- 0;
    c.slen <- 0;
    (match g.spans with
    | None -> ()
    | Some sp ->
        for id = c.unsent_id to c.next_id - 1 do
          Spans.record sp ~kind:span_send ~id ~start:c.s_t.(id land (slots - 1)) ~stop:now
        done);
    c.unsent_id <- c.next_id
  end

let inflight g = Array.fold_left (fun a c -> a + c.inflight) 0 g.conns

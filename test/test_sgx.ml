(* SGX simulator: EPC paging, enclave lifecycle, boundary crossings,
   sealing and attestation. *)

open Twine_sgx

let page = Costs.page_size

let fresh_machine ?costs ?epc_bytes () =
  Machine.create ?costs ?epc_bytes ~seed:"test-machine" ()

(* --- EPC --- *)

let test_epc_fault_then_hit () =
  let epc = Epc.create ~limit_bytes:(4 * page) () in
  let p i = Epc.page_of ~enclave_id:1 ~page_no:i in
  let faulted = match Epc.touch epc (p 0) with `Fault _ -> true | `Hit -> false in
  Alcotest.(check bool) "first touch faults" true faulted;
  Alcotest.(check bool) "second touch hits" true (Epc.touch epc (p 0) = `Hit);
  Alcotest.(check int) "one fault" 1 (Epc.faults epc)

let test_epc_eviction () =
  let epc = Epc.create ~limit_bytes:(2 * page) () in
  let p i = Epc.page_of ~enclave_id:1 ~page_no:i in
  ignore (Epc.touch epc (p 0));
  ignore (Epc.touch epc (p 1));
  (match Epc.touch epc (p 2) with
  | `Fault (Some victim) ->
      Alcotest.(check int) "LRU page is the victim" (p 0) victim
  | `Fault None -> Alcotest.fail "full EPC must evict"
  | `Hit -> Alcotest.fail "cold page cannot hit");
  let refault =
    match Epc.touch epc (p 0) with
    | `Fault (Some _) -> true  (* full EPC: the refault also evicts *)
    | `Fault None | `Hit -> false
  in
  Alcotest.(check bool) "evicted page refaults (and evicts)" true refault;
  Alcotest.(check int) "resident bounded" 2 (Epc.resident_pages epc)

(* The memory hook's hot path: a resident page costs one probe, one
   relink and one counter add, with no allocation. *)
let test_epc_hit_allocates_nothing () =
  let m = fresh_machine () in
  let epc = Epc.create ~obs:m.Machine.obs ~limit_bytes:(64 * page) () in
  let p i = Epc.page_of ~enclave_id:1 ~page_no:(i land 63) in
  for i = 0 to 63 do ignore (Epc.touch epc (p i)) done;
  let before = Gc.minor_words () in
  for i = 1 to 1000 do ignore (Epc.touch epc (p i)) done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 hits" words) true (words < 16.);
  Alcotest.(check int) "hits counted" 1000 (Twine_obs.Obs.value m.obs "epc.hit")

(* A charge through a resolved meter hashes no name and allocates
   nothing while no tracer is attached. *)
let test_charge_allocates_nothing () =
  let m = fresh_machine () in
  let meter = Machine.meter m ~account:"test.account" "test.component" in
  Machine.charge m meter 5;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do Machine.charge m meter 5 done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 charges" words) true (words < 16.);
  Alcotest.(check int) "booked" 5005 (Twine_obs.Ledger.ns m.ledger "test.account")

(* Regression: the epc.evict trace instant must carry the *victim* page
   (the one encrypted out), not the incoming page that caused the fault.
   Before the fix, the event's enclave/page args described the incoming
   page, so cross-enclave interference was invisible and the timeline
   blamed the wrong enclave. *)
let test_epc_evict_trace_names_victim () =
  let m = fresh_machine ~epc_bytes:(2 * page) () in
  let tr = Machine.attach_tracer m in
  let epc = Epc.create ~obs:m.Machine.obs ~limit_bytes:(2 * page) () in
  (* enclave 1 owns both resident pages; enclave 2 faults one in *)
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:7));
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:8));
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:2 ~page_no:3));
  let evicts =
    List.filter
      (fun (e : Twine_obs.Trace.event) -> e.Twine_obs.Trace.name = "epc.evict")
      (Twine_obs.Trace.events tr)
  in
  match evicts with
  | [ e ] ->
      let arg k = List.assoc k e.Twine_obs.Trace.args in
      Alcotest.(check int) "victim enclave is 1" 1 (arg "enclave");
      Alcotest.(check int) "victim page is the LRU page" 7 (arg "page");
      Alcotest.(check int) "faulting enclave recorded" 2 (arg "by")
  | l -> Alcotest.failf "expected exactly one epc.evict event, got %d" (List.length l)

let test_epc_victim_attribution () =
  (* shared-EPC interference: enclave 2's faults evict enclave 1's pages,
     and the books say so (victim counts, not toucher counts) *)
  let epc = Epc.create ~limit_bytes:(4 * page) () in
  for i = 0 to 3 do
    ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:i))
  done;
  for i = 0 to 1 do
    ignore (Epc.touch epc (Epc.page_of ~enclave_id:2 ~page_no:i))
  done;
  Alcotest.(check int) "enclave 1 lost two pages" 2 (Epc.evictions_of epc 1);
  Alcotest.(check int) "enclave 2 lost none" 0 (Epc.evictions_of epc 2);
  Alcotest.(check int) "totals agree" 2 (Epc.evictions epc)

let test_epc_page_packing () =
  let p = Epc.page_of ~enclave_id:5 ~page_no:77 in
  Alcotest.(check int) "enclave decodes" 5 (Epc.enclave_of_page p);
  Alcotest.(check int) "page decodes" 77 (Epc.page_no_of_page p);
  let max_p = Epc.page_of ~enclave_id:Epc.max_enclave_id ~page_no:Epc.max_page_no in
  Alcotest.(check int) "max enclave decodes" Epc.max_enclave_id
    (Epc.enclave_of_page max_p);
  Alcotest.(check int) "max page decodes" Epc.max_page_no
    (Epc.page_no_of_page max_p);
  Alcotest.check_raises "page_no overflow would alias another enclave"
    (Invalid_argument "Epc.page_of: page_no out of range") (fun () ->
      ignore (Epc.page_of ~enclave_id:1 ~page_no:(Epc.max_page_no + 1)));
  Alcotest.check_raises "enclave_id overflow would corrupt the tag"
    (Invalid_argument "Epc.page_of: enclave_id out of range") (fun () ->
      ignore (Epc.page_of ~enclave_id:(Epc.max_enclave_id + 1) ~page_no:0));
  Alcotest.check_raises "negative page_no"
    (Invalid_argument "Epc.page_of: page_no out of range") (fun () ->
      ignore (Epc.page_of ~enclave_id:1 ~page_no:(-1)))

let test_epc_release_enclave () =
  let epc = Epc.create ~limit_bytes:(8 * page) () in
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:0));
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:2 ~page_no:0));
  Epc.release_enclave epc 1;
  Alcotest.(check int) "only enclave 2 remains" 1 (Epc.resident_pages epc);
  Alcotest.(check bool) "enclave 2 still resident" true
    (Epc.touch epc (Epc.page_of ~enclave_id:2 ~page_no:0) = `Hit)

(* Regression: teardown hygiene. release_enclave must purge the
   eviction-provenance table on BOTH sides — entries whose victim owner
   is the destroyed enclave (they would leak forever, and misfire if
   the id were ever reused) and entries naming it as evictor (a
   destroyed enclave must never be blamed for a future refault). The
   serving fleet's failover path relies on this: a relaunched
   replacement starts with clean blame books. *)
let test_epc_release_purges_provenance () =
  let cross_entry () =
    (* enclave 1 owns both resident pages; enclave 2's fault evicts
       enclave 1's LRU page, leaving a provenance entry (owner 1, by 2) *)
    let epc = Epc.create ~limit_bytes:(2 * page) () in
    let fired = ref [] in
    Epc.set_refault_hook epc
      (Some (fun ~owner ~evictor -> fired := (owner, evictor) :: !fired));
    ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:0));
    ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:1));
    ignore (Epc.touch epc (Epc.page_of ~enclave_id:2 ~page_no:0));
    (epc, fired)
  in
  (* sanity: with no release, the owner's refault blames enclave 2 *)
  let epc, fired = cross_entry () in
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:0));
  Alcotest.(check (list (pair int int))) "refault blames the evictor"
    [ (1, 2) ] !fired;
  Alcotest.(check int) "cross refault counted" 1 (Epc.cross_refaults epc);
  (* victim-side purge: destroy the owner; its pending entry must die
     with it, so a reused id refaulting the same page stays blameless *)
  let epc, fired = cross_entry () in
  Epc.release_enclave epc 1;
  Alcotest.(check int) "owner's pages dropped" 1 (Epc.resident_pages epc);
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:0));
  Alcotest.(check (list (pair int int))) "purged victim entry never fires"
    [] !fired;
  Alcotest.(check int) "no cross refault" 0 (Epc.cross_refaults epc);
  (* evictor-side purge: destroy the evictor; the surviving owner's
     refault must not blame the destroyed enclave *)
  let epc, fired = cross_entry () in
  Epc.release_enclave epc 2;
  ignore (Epc.touch epc (Epc.page_of ~enclave_id:1 ~page_no:0));
  Alcotest.(check (list (pair int int)))
    "destroyed evictor never blamed" [] !fired;
  Alcotest.(check int) "no cross refault either" 0 (Epc.cross_refaults epc)

(* --- Enclave lifecycle & crossings --- *)

let test_enclave_identity () =
  let m = fresh_machine () in
  let e1 = Enclave.create m ~code:"codeA" () in
  let e2 = Enclave.create m ~code:"codeA" () in
  let e3 = Enclave.create m ~code:"codeB" () in
  Alcotest.(check string) "same code, same measurement"
    (Enclave.measurement e1) (Enclave.measurement e2);
  Alcotest.(check bool) "different code differs" true
    (Enclave.measurement e1 <> Enclave.measurement e3);
  Alcotest.(check bool) "distinct ids" true (Enclave.id e1 <> Enclave.id e2)

let test_enclave_launch_cost_scales () =
  let m = fresh_machine () in
  let t0 = Machine.now_ns m in
  let _small = Enclave.create m ~heap_bytes:(64 * 1024) ~code:"c" () in
  let small_cost = Machine.now_ns m - t0 in
  let t1 = Machine.now_ns m in
  let _large = Enclave.create m ~heap_bytes:(16 * 1024 * 1024) ~code:"c" () in
  let large_cost = Machine.now_ns m - t1 in
  Alcotest.(check bool) "bigger enclave launches slower" true (large_cost > small_cost)

let test_ecall_ocall_costs () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"c" () in
  let t0 = Machine.now_ns m in
  let v = Enclave.ecall e (fun _ -> 41 + 1) in
  Alcotest.(check int) "ecall returns" 42 v;
  let ecall_cost = Machine.now_ns m - t0 in
  let expected = 2 * Costs.cycles_ns m.costs m.costs.transition_cycles in
  (* cycle charges carry their sub-ns remainder forward, so a pair of
     crossings lands within 1 ns of the rounded per-crossing figure *)
  let within label tol want got =
    Alcotest.(check bool)
      (Printf.sprintf "%s (want %d +/-%d, got %d)" label want tol got)
      true
      (abs (got - want) <= tol)
  in
  within "ecall = 2 crossings" 1 expected ecall_cost;
  Alcotest.(check int) "transition count" 2 (Enclave.transitions e);
  (* nested ecall is free *)
  let t1 = Machine.now_ns m in
  ignore (Enclave.ecall e (fun _ -> Enclave.ecall e (fun _ -> ())));
  within "nested ecall charges once" 1 expected (Machine.now_ns m - t1);
  (* ocall requires being inside *)
  Alcotest.check_raises "ocall outside"
    (Invalid_argument "Enclave.ocall: not inside an ecall") (fun () ->
      Enclave.ocall e (fun () -> ()));
  let t2 = Machine.now_ns m in
  Enclave.ecall e (fun _ -> Enclave.ocall e (fun () -> ()));
  within "ecall+ocall = 4 crossings" 2 (2 * expected) (Machine.now_ns m - t2)

let test_enclave_alloc_touch_faults () =
  (* EPC smaller than the allocation: touching it all causes faults and
     advances the clock. *)
  let m = fresh_machine ~epc_bytes:(16 * page) () in
  let e = Enclave.create m ~heap_bytes:0 ~code:"c" () in
  let addr = Enclave.alloc e (64 * page) in
  let before = Epc.faults m.epc in
  let t0 = Machine.now_ns m in
  Enclave.touch e ~addr ~len:(64 * page);
  Alcotest.(check bool) "faults happened" true (Epc.faults m.epc > before);
  Alcotest.(check bool) "time charged" true (Machine.now_ns m > t0);
  (* working set fits: re-touching the last 8 pages is free *)
  let t1 = Machine.now_ns m in
  Enclave.touch e ~addr:(addr + (56 * page)) ~len:(8 * page);
  Alcotest.(check int) "hits are free" t1 (Machine.now_ns m)

let test_software_mode_no_fault_cost () =
  let m = fresh_machine ~epc_bytes:(4 * page) () in
  Machine.set_software_mode m;
  let e = Enclave.create m ~heap_bytes:0 ~code:"c" () in
  let addr = Enclave.alloc e (16 * page) in
  let fault_ns () =
    match Twine_obs.Obs.hstat m.obs "sgx.epc_fault" with
    | Some h -> h.Twine_obs.Obs.sum
    | None -> 0
  in
  let fault_ns_before = fault_ns () in
  Enclave.touch e ~addr ~len:(16 * page);
  Alcotest.(check int) "no paging cost in software mode" fault_ns_before
    (fault_ns ())

let test_destroyed_enclave () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"c" () in
  Enclave.destroy e;
  Alcotest.check_raises "ecall after destroy" Enclave.Destroyed (fun () ->
      Enclave.ecall e (fun _ -> ()));
  Enclave.destroy e (* idempotent *)

let test_enclave_random_deterministic () =
  let mk () =
    let m = fresh_machine () in
    Enclave.random (Enclave.create m ~code:"c" ()) 32
  in
  Alcotest.(check string) "same machine+code reproduce" (mk ()) (mk ());
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"c" () in
  Alcotest.(check bool) "stream advances" true (Enclave.random e 16 <> Enclave.random e 16)

(* --- Sealing --- *)

let test_seal_roundtrip () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"sealer" () in
  let blob = Seal.seal e "secret data" in
  Alcotest.(check (option string)) "unseal" (Some "secret data") (Seal.unseal e blob)

let test_seal_other_enclave_fails () =
  let m = fresh_machine () in
  let e1 = Enclave.create m ~code:"codeA" () in
  let e2 = Enclave.create m ~code:"codeB" () in
  let blob = Seal.seal e1 "secret" in
  Alcotest.(check (option string)) "other enclave cannot unseal" None
    (Seal.unseal e2 blob)

let test_seal_other_machine_fails () =
  let m1 = Machine.create ~seed:"cpu1" () in
  let m2 = Machine.create ~seed:"cpu2" () in
  let e1 = Enclave.create m1 ~code:"codeA" () in
  let e2 = Enclave.create m2 ~code:"codeA" () in
  let blob = Seal.seal e1 "secret" in
  Alcotest.(check (option string)) "same code, other cpu cannot unseal" None
    (Seal.unseal e2 blob)

let test_seal_mrsigner_policy () =
  let m = fresh_machine () in
  let e1 = Enclave.create m ~signer:"vendor" ~code:"v1" () in
  let e2 = Enclave.create m ~signer:"vendor" ~code:"v2" () in
  let e3 = Enclave.create m ~signer:"other" ~code:"v1" () in
  let blob = Seal.seal e1 ~policy:Seal.Mr_signer "shared" in
  Alcotest.(check (option string)) "same signer unseals" (Some "shared")
    (Seal.unseal e2 blob);
  Alcotest.(check (option string)) "other signer cannot" None (Seal.unseal e3 blob)

let test_seal_label_separation () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"c" () in
  let blob = Seal.seal e ~label:"db" "x" in
  Alcotest.(check (option string)) "wrong label fails" None
    (Seal.unseal e ~label:"log" blob);
  Alcotest.(check (option string)) "right label works" (Some "x")
    (Seal.unseal e ~label:"db" blob)

let test_seal_tamper () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"c" () in
  let blob = Seal.seal e "payload" in
  let bad = Bytes.of_string blob in
  Bytes.set bad (Bytes.length bad - 1)
    (Char.chr (Char.code (Bytes.get bad (Bytes.length bad - 1)) lxor 1));
  Alcotest.(check (option string)) "tampered blob rejected" None
    (Seal.unseal e (Bytes.to_string bad))

(* --- Attestation --- *)

let test_local_report () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"app" () in
  let r = Attestation.report e ~data:"channel-binding" in
  Alcotest.(check bool) "verifies on same machine" true (Attestation.verify_report m r);
  let m2 = Machine.create ~seed:"other-cpu" () in
  Alcotest.(check bool) "fails on other machine" false (Attestation.verify_report m2 r)

let test_report_tamper () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"app" () in
  let r = Attestation.report e ~data:"d" in
  let forged = { r with Attestation.measurement = String.make 32 'x' } in
  Alcotest.(check bool) "forged measurement fails" false
    (Attestation.verify_report m forged)

let test_remote_quote () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"app" () in
  let service = Attestation.service_for m in
  let q = Attestation.quote e ~data:"nonce42" in
  Alcotest.(check bool) "service accepts" true (Attestation.verify_quote service q);
  Alcotest.(check bool) "pinned measurement accepted" true
    (Attestation.verify_quote service
       ~expected_measurement:(Enclave.measurement e) q);
  Alcotest.(check bool) "wrong measurement rejected" false
    (Attestation.verify_quote service ~expected_measurement:(String.make 32 'z') q);
  let rogue = Attestation.service_for (Machine.create ~seed:"rogue" ()) in
  Alcotest.(check bool) "unregistered cpu rejected" false
    (Attestation.verify_quote rogue q)

let test_report_data_too_long () =
  let m = fresh_machine () in
  let e = Enclave.create m ~code:"app" () in
  Alcotest.check_raises "data > 64"
    (Invalid_argument "Attestation: report data > 64 bytes") (fun () ->
      ignore (Attestation.report e ~data:(String.make 65 'a')))

(* --- Costs --- *)

let test_costs_software_mode () =
  let c = Costs.default in
  let s = Costs.software_mode c in
  Alcotest.(check int) "no fault cost" 0 s.epc_fault_cycles;
  Alcotest.(check bool) "cheaper transitions" true
    (s.transition_cycles < c.transition_cycles)

let test_costs_conversions () =
  Alcotest.(check int) "cycles at 3.8GHz" 263 (Costs.cycles_ns Costs.default 1000);
  Alcotest.(check int) "bytes_ns rounds" 3 (Costs.bytes_ns 0.25 10)

let suite =
  [ ("epc", [
      Alcotest.test_case "fault then hit" `Quick test_epc_fault_then_hit;
      Alcotest.test_case "lru eviction" `Quick test_epc_eviction;
      Alcotest.test_case "evict trace names victim" `Quick
        test_epc_evict_trace_names_victim;
      Alcotest.test_case "victim attribution" `Quick test_epc_victim_attribution;
      Alcotest.test_case "page packing bounds" `Quick test_epc_page_packing;
      Alcotest.test_case "release enclave" `Quick test_epc_release_enclave;
      Alcotest.test_case "release purges provenance" `Quick
        test_epc_release_purges_provenance;
      Alcotest.test_case "hit allocates nothing" `Quick test_epc_hit_allocates_nothing;
      Alcotest.test_case "charge allocates nothing" `Quick test_charge_allocates_nothing;
    ]);
    ("enclave", [
      Alcotest.test_case "identity" `Quick test_enclave_identity;
      Alcotest.test_case "launch cost scales" `Quick test_enclave_launch_cost_scales;
      Alcotest.test_case "ecall/ocall costs" `Quick test_ecall_ocall_costs;
      Alcotest.test_case "alloc+touch faults" `Quick test_enclave_alloc_touch_faults;
      Alcotest.test_case "software mode paging free" `Quick test_software_mode_no_fault_cost;
      Alcotest.test_case "destroyed" `Quick test_destroyed_enclave;
      Alcotest.test_case "trusted randomness" `Quick test_enclave_random_deterministic;
    ]);
    ("seal", [
      Alcotest.test_case "roundtrip" `Quick test_seal_roundtrip;
      Alcotest.test_case "other enclave" `Quick test_seal_other_enclave_fails;
      Alcotest.test_case "other machine" `Quick test_seal_other_machine_fails;
      Alcotest.test_case "mrsigner policy" `Quick test_seal_mrsigner_policy;
      Alcotest.test_case "label separation" `Quick test_seal_label_separation;
      Alcotest.test_case "tamper" `Quick test_seal_tamper;
    ]);
    ("attestation", [
      Alcotest.test_case "local report" `Quick test_local_report;
      Alcotest.test_case "report tamper" `Quick test_report_tamper;
      Alcotest.test_case "remote quote" `Quick test_remote_quote;
      Alcotest.test_case "oversized data" `Quick test_report_data_too_long;
    ]);
    ("costs", [
      Alcotest.test_case "software mode" `Quick test_costs_software_mode;
      Alcotest.test_case "conversions" `Quick test_costs_conversions;
    ]);
  ]

let () = Alcotest.run "twine_sgx" suite

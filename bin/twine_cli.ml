(* twine — command-line front end.

   twine run app.wat            run a WASI command inside the simulated enclave
   twine run --no-sgx app.wat   run it outside (plain WAMR-style host)
   twine validate app.wat       type-check a module
   twine wat2wasm app.wat       assemble text format to binary
   twine inspect app.wasm       print module structure *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_module path =
  let content = read_file path in
  if Filename.check_suffix path ".wasm"
     || (String.length content >= 4 && String.sub content 0 4 = "\x00asm")
  then Twine_wasm.Binary.decode content
  else Twine_wasm.Wat.parse content

(* Exit 1 when a conservation law fails, printing each failed audit. *)
let enforce cmd audits =
  let failed = Twine_obs.Audit.check audits in
  List.iter (fun a -> Printf.eprintf "twine %s: %s\n" cmd (Twine_obs.Audit.render a)) failed;
  if failed <> [] then exit 1

(* Write an artifact file; an I/O error prints "<cmd>: cannot write
   <what>: <reason>" and exits 2. *)
let write_artifact cmd ~what file contents =
  try
    let oc = open_out file in
    output_string oc contents;
    close_out oc
  with Sys_error msg ->
    Printf.eprintf "%s: cannot write %s: %s\n" cmd what msg;
    exit 2

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODULE" ~doc:"Wasm module (.wat or .wasm)")

(* --- run --- *)

let run_cmd =
  let no_sgx =
    Arg.(value & flag & info [ "no-sgx" ] ~doc:"Run outside the simulated enclave (plain WASI host).")
  in
  let interp =
    Arg.(value & flag & info [ "interpreter" ] ~doc:"Use the interpreter instead of AoT compilation.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Disable the untrusted POSIX fallback inside the enclave.")
  in
  let dir =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Host directory backing the (protected) file system.")
  in
  let args =
    Arg.(value & opt_all string [] & info [ "arg" ] ~docv:"ARG" ~doc:"Argument passed to the guest.")
  in
  let fuel_limit =
    Arg.(value & opt (some int) None & info [ "fuel-limit" ] ~docv:"N"
           ~doc:"Trap the guest deterministically after executing $(docv) \
                 instructions (same trap point in both engines).")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print enclave statistics after the run.") in
  let profile =
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
           ~doc:"Write the telemetry report as JSON to $(docv) after the run.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a flight-recorder trace of the run and write it as \
                 Chrome trace-event JSON (loadable in ui.perfetto.dev) to $(docv).")
  in
  let profile_wasm =
    Arg.(value & opt ~vopt:(Some "profile.folded") (some string) None
         & info [ "profile-wasm" ] ~docv:"FILE"
             ~doc:"Profile the guest: per-function instruction and \
                   virtual-cycle attribution on a shadow call stack. Prints \
                   a hot-function table to stderr and writes folded stacks \
                   (flamegraph.pl / speedscope input) to $(docv) (default \
                   profile.folded). Combine with $(b,--trace) to see guest \
                   frames in Perfetto.")
  in
  let ledger_out =
    Arg.(value & opt (some string) None
         & info [ "ledger" ] ~docv:"FILE"
             ~doc:"Write the run's cycle ledger (per-account booked time \
                   with the conservation audit totals) as JSON to $(docv). \
                   Two such files feed $(b,twine diff).")
  in
  let run path no_sgx interp strict dir args fuel_limit stats profile trace
      profile_wasm ledger_out =
    (match fuel_limit with
    | Some n when n < 0 ->
        Printf.eprintf "twine run: --fuel-limit %d: must be non-negative\n" n;
        exit 2
    | _ -> ());
    let module_ = load_module path in
    if no_sgx then begin
      let preopens =
        match dir with
        | Some d -> [ (".", Twine_wasi.Vfs.os d) ]
        | None -> [ (".", Twine_wasi.Vfs.memory ()) ]
      in
      let ctx = Twine_wasi.Api.create ~args:(Filename.basename path :: args) ~preopens () in
      exit (Twine_wasi.Api.run_command ctx module_)
    end
    else begin
      let machine = Twine_sgx.Machine.create () in
      let config =
        {
          Twine.Runtime.default_config with
          engine = (if interp then Twine.Runtime.Interpreter else Twine.Runtime.Aot);
          strict_wasi = strict;
        }
      in
      let backing =
        match dir with
        | Some d -> Twine_ipfs.Backing.directory d
        | None -> Twine_ipfs.Backing.memory ()
      in
      let tracer =
        match trace with
        | Some _ -> Some (Twine_sgx.Machine.attach_tracer machine)
        | None -> None
      in
      let prof =
        match profile_wasm with
        | Some _ ->
            Some
              (Twine_obs.Profile.create ?tracer
                 ~now:(fun () -> Twine_sgx.Machine.now_ns machine)
                 ())
        | None -> None
      in
      let rt = Twine.Runtime.create ~config ~backing machine in
      Twine.Runtime.deploy rt module_;
      let write_wasm_profile () =
        match (profile_wasm, prof) with
        | Some file, Some p -> (
            try
              Twine_obs.Trace_export.folded_to_file p file;
              prerr_string (Twine_obs.Report.profile_table p);
              Printf.eprintf "twine: wasm profile: %d instruction(s) over %d function(s); \
                              folded stacks in %s\n"
                (Twine_obs.Profile.total_fuel p)
                (List.length (Twine_obs.Profile.functions p))
                file
            with Sys_error msg ->
              Printf.eprintf "twine: cannot write wasm profile: %s\n" msg;
              exit 2)
        | _ -> ()
      in
      let r =
        try
          Twine.Runtime.run ~args:(Filename.basename path :: args) ?profile:prof
            ?fuel_limit rt
        with Twine_wasm.Values.Trap _ as e ->
          Printf.eprintf "twine: guest trap: %s\n" (Twine.Runtime.trap_message rt e);
          (* the profile up to the trap point is still valid (the shadow
             stack unwinds on the way out) — write it for post-mortems *)
          write_wasm_profile ();
          exit 134
      in
      print_string r.Twine.Runtime.stdout;
      let ledger = Twine_sgx.Machine.ledger machine in
      if stats then begin
        Printf.eprintf "-- twine stats --\n";
        Printf.eprintf "exit code:            %d\n" r.Twine.Runtime.exit_code;
        Printf.eprintf "boundary crossings:   %d\n"
          (Twine_sgx.Enclave.transitions (Twine.Runtime.enclave rt));
        Printf.eprintf "EPC faults:           %d\n"
          (Twine_sgx.Epc.faults machine.Twine_sgx.Machine.epc);
        Printf.eprintf "simulated time:       %.3f ms\n"
          (float_of_int (Twine_sgx.Machine.now_ns machine) /. 1e6);
        prerr_newline ();
        prerr_string
          (Twine_obs.Report.render ?profile:prof ~ledger machine.Twine_sgx.Machine.obs)
      end;
      write_wasm_profile ();
      Option.iter
        (fun file ->
          write_artifact "twine" ~what:"profile" file
            (Twine_obs.Report.to_json ?profile:prof ~ledger machine.Twine_sgx.Machine.obs
            ^ "\n"))
        profile;
      Option.iter
        (fun file ->
          write_artifact "twine" ~what:"ledger" file
            (Twine_obs.Ledger.to_string (Twine_obs.Ledger.snapshot ledger) ^ "\n");
          Printf.eprintf "twine: ledger written to %s\n" file)
        ledger_out;
      (match (trace, tracer) with
      | Some file, Some tr -> (
          try
            Twine_obs.Trace_export.to_file ~process_name:"twine-sim" tr file;
            Printf.eprintf "twine: trace: %d event(s) written to %s (%d dropped)\n"
              (Twine_obs.Trace.length tr) file (Twine_obs.Trace.dropped tr)
          with Sys_error msg ->
            Printf.eprintf "twine: cannot write trace: %s\n" msg;
            exit 2)
      | _ -> ());
      exit r.Twine.Runtime.exit_code
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a WASI command inside the simulated TWINE enclave.")
    Term.(const run $ path_arg $ no_sgx $ interp $ strict $ dir $ args $ fuel_limit
          $ stats $ profile $ trace $ profile_wasm $ ledger_out)

(* --- serve --- *)

let serve_cmd =
  (* every default comes from the library's own configuration *)
  let d = Twine_serve.Serve.default_config in
  let enclaves =
    Arg.(value & opt int d.Twine_serve.Serve.enclaves & info [ "enclaves" ] ~docv:"N"
           ~doc:"Fleet size: enclaves sharing one machine (and one EPC).")
  in
  let requests =
    Arg.(value & opt int d.Twine_serve.Serve.requests & info [ "requests" ] ~docv:"N"
           ~doc:"Synthetic client requests to replay.")
  in
  let batch =
    Arg.(value & opt int d.Twine_serve.Serve.batch & info [ "batch" ] ~docv:"N"
           ~doc:"Max requests coalesced behind one ECALL (1 = unbatched).")
  in
  let seed =
    Arg.(value & opt string d.Twine_serve.Serve.seed & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload seed; the same seed replays byte-identically.")
  in
  let epc_kib =
    Arg.(value & opt (some int) None & info [ "epc-kib" ] ~docv:"KIB"
           ~doc:"Override the shared EPC size (KiB, at least 4: one page) to \
                 move the paging cliff.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the serving phase in the flight recorder and write \
                 Chrome trace-event JSON (loadable in ui.perfetto.dev) to $(docv).")
  in
  let ledger_out =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Write the serving-phase cycle ledger as JSON to $(docv); \
                 two such files feed $(b,twine diff) (e.g. batched vs not).")
  in
  let blame =
    Arg.(value & flag & info [ "blame" ]
           ~doc:"Print the tail-latency blame report: the slowest requests \
                 with their exact per-request cycle slices, the dominant \
                 component of each, the p99 dominant-account census and \
                 cross-enclave EPC interference attribution.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"How many tail requests $(b,--blame) ranks (default 10).")
  in
  let timeline =
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE"
           ~doc:"Like $(b,--trace), but with per-enclave request tracks and \
                 the sampler's counter series (queue depth, EPC residency, \
                 completed requests) named for Perfetto's track view.")
  in
  let mean_gap_ns =
    Arg.(value & opt int d.Twine_serve.Serve.mean_gap_ns & info [ "mean-gap-ns" ] ~docv:"NS"
           ~doc:"Mean client inter-arrival gap in virtual nanoseconds \
                 (open loop; 0 = every request arrives at time zero).")
  in
  let mix =
    let m = d.Twine_serve.Serve.mix in
    Arg.(value
         & opt string
             (Printf.sprintf "%d:%d:%d" m.Twine_serve.Workload.kv_get
                m.Twine_serve.Workload.sql_point m.Twine_serve.Workload.sql_range)
         & info [ "mix" ] ~docv:"KV:SQL:RANGE"
             ~doc:"Relative request-kind weights as three colon-separated \
                   non-negative integers: key-value gets, SQL point queries, \
                   SQL range slices.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Streaming mode: drop per-request retention and fold every \
                 completion into the windowed series and mergeable latency \
                 sketch as it happens — O(windows + sketch) memory, so \
                 10-100x request counts replay byte-identically. p50/p99 \
                 become sketch estimates (within 1/128 relative error); \
                 the per-request views ($(b,--blame)) are unavailable.")
  in
  let slo =
    Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"SPEC"
           ~doc:"Latency objective to evaluate over the windowed series, \
                 e.g. $(b,p99<2ms@50ms,budget=0.1%). Optional \
                 $(b,,fast=14.4x1) / $(b,,slow=6x5) override the burn-rate \
                 alert thresholds (multiplier x windows). Exit code 3 when \
                 the objective is violated over the whole run.")
  in
  let slo_out =
    Arg.(value & opt (some string) None & info [ "slo-out" ] ~docv:"FILE"
           ~doc:"Write the twine-slo/v1 artifact (spec, verdict, burn-rate \
                 alerts, fleet latency sketch, every track's windows) as \
                 canonical JSON to $(docv). Byte-identical across replays \
                 and across retained vs $(b,--stream) runs.")
  in
  let chaos =
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"Arm a seeded fault schedule for the serving phase, e.g. \
                 $(b,enclave.ecall=crash@500) (crash the 500th entry) or \
                 $(b,seed=c1;enclave.ecall=fail%0.01x5[10ms..80ms]) \
                 (transient entry failures at 1% in a virtual-time \
                 window, at most 5). ;-separated rules; actions crash, \
                 fail, drop, corrupt, torn:F, delay:DUR. Deterministic: \
                 the same spec and seed replay byte-identically.")
  in
  let deadline_ns =
    Arg.(value & opt int d.Twine_serve.Serve.deadline_ns & info [ "deadline-ns" ] ~docv:"NS"
           ~doc:"Client deadline: a request still unserved $(docv) virtual \
                 ns after arrival completes as timed out (0 = off).")
  in
  let retries =
    Arg.(value & opt int d.Twine_serve.Serve.retries & info [ "retries" ] ~docv:"N"
           ~doc:"Requeues allowed per request after enclave faults before \
                 it fails permanently.")
  in
  let backoff =
    Arg.(value & opt int d.Twine_serve.Serve.backoff_ns & info [ "backoff" ] ~docv:"NS"
           ~doc:"Retry backoff base in virtual ns: requeue k waits \
                 base*2^(k-1) plus deterministic jitter, capped at 50x \
                 base.")
  in
  let shed_depth =
    Arg.(value & opt int d.Twine_serve.Serve.shed_depth & info [ "shed-depth" ] ~docv:"N"
           ~doc:"Admission control: shed an arrival whose enclave queue \
                 already holds $(docv) live requests (0 = off).")
  in
  let hedge =
    Arg.(value & flag & info [ "hedge" ]
           ~doc:"Hedged retries: requeue onto the least-loaded enclave \
                 instead of the request's home queue.")
  in
  let sql_stats =
    Arg.(value & opt (some string) None & info [ "sql-stats" ] ~docv:"FILE"
           ~doc:"Write the twine-sqlstats/v1 query-stats artifact (fleet \
                 and per-enclave registries keyed by normalized statement \
                 fingerprint: counts, rows, pager I/O, cycle totals and \
                 p50/p99 latency sketches) as canonical JSON to $(docv). \
                 Byte-identical across replays and across retained vs \
                 $(b,--stream) runs.")
  in
  let run enclaves requests batch seed epc_kib trace ledger_out blame top
      timeline mean_gap_ns mix stream slo slo_out chaos deadline_ns retries
      backoff shed_depth hedge sql_stats =
    if enclaves <= 0 || batch <= 0 || requests < 0 then begin
      prerr_endline "twine serve: --enclaves and --batch must be positive, --requests non-negative";
      exit 2
    end;
    let mix =
      match String.split_on_char ':' mix with
      | [ a; b; c ] -> (
          match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
          | Some kv_get, Some sql_point, Some sql_range
            when kv_get >= 0 && sql_point >= 0 && sql_range >= 0
                 && kv_get + sql_point + sql_range > 0 ->
              { Twine_serve.Workload.kv_get; sql_point; sql_range }
          | _ ->
              Printf.eprintf
                "twine serve: --mix %s: weights must be non-negative \
                 integers, not all zero\n" mix;
              exit 2)
      | _ ->
          Printf.eprintf
            "twine serve: --mix %s: expected KV:SQL:RANGE (e.g. 6:3:1)\n" mix;
          exit 2
    in
    let slo =
      match slo with
      | None -> None
      | Some spec -> (
          match Twine_obs.Slo.parse spec with
          | Ok s -> Some s
          | Error msg ->
              Printf.eprintf "twine serve: --slo %s: %s\n" spec msg;
              exit 2)
    in
    let chaos =
      match chaos with
      | None -> None
      | Some spec -> (
          match Twine_sim.Chaos.parse spec with
          | Ok s -> Some s
          | Error msg ->
              Printf.eprintf "twine serve: --chaos %s: %s\n" spec msg;
              exit 2)
    in
    if deadline_ns < 0 then begin
      prerr_endline "twine serve: --deadline-ns must be non-negative";
      exit 2
    end;
    if shed_depth < 0 then begin
      prerr_endline "twine serve: --shed-depth must be non-negative";
      exit 2
    end;
    if retries < 0 then begin
      prerr_endline "twine serve: --retries must be non-negative";
      exit 2
    end;
    if backoff < 0 then begin
      prerr_endline "twine serve: --backoff must be non-negative";
      exit 2
    end;
    if mean_gap_ns < 0 then begin
      Printf.eprintf "twine serve: --mean-gap-ns %d: must be non-negative\n" mean_gap_ns;
      exit 2
    end;
    (match epc_kib with
    | Some k when k < 4 ->
        Printf.eprintf "twine serve: --epc-kib %d: must be at least 4 (one 4 KiB page)\n" k;
        exit 2
    | _ -> ());
    let cfg =
      {
        d with
        Twine_serve.Serve.enclaves;
        requests;
        batch;
        seed;
        epc_bytes =
          (match epc_kib with Some k -> k * 1024 | None -> d.Twine_serve.Serve.epc_bytes);
        mean_gap_ns;
        mix;
        retain_requests = not stream;
        slo;
        chaos;
        deadline_ns;
        retries;
        backoff_ns = backoff;
        shed_depth;
        hedge;
      }
    in
    if top <= 0 then begin
      prerr_endline "twine serve: --top must be positive";
      exit 2
    end;
    let tracer = ref None in
    let prepare m =
      if trace <> None || timeline <> None then
        tracer := Some (Twine_sgx.Machine.attach_tracer m)
    in
    let stats = Twine_serve.Serve.run ~prepare cfg in
    print_string (Twine_serve.Serve.render stats);
    if blame then begin
      match Twine_serve.Serve.render_blame ~top stats with
      | s -> print_string s
      | exception Invalid_argument msg ->
          Printf.eprintf "twine serve: %s\n" msg;
          exit 2
    end;
    enforce "serve"
      [ Twine_obs.Ledger.audit (Twine_sgx.Machine.ledger stats.Twine_serve.Serve.machine);
        Twine_serve.Serve.attribution stats ];
    Option.iter
      (fun file ->
        write_artifact "twine serve" ~what:"ledger" file
          (Twine_obs.Ledger.to_string stats.Twine_serve.Serve.ledger ^ "\n");
        Printf.eprintf "twine serve: ledger written to %s\n" file)
      ledger_out;
    let write_trace file threads =
      match !tracer with
      | Some tr -> (
          try
            Twine_obs.Trace_export.to_file ~process_name:"twine-serve" ?threads
              tr file;
            Printf.eprintf
              "twine serve: trace: %d event(s) written to %s (%d dropped, \
               high water %d)\n"
              (Twine_obs.Trace.length tr) file (Twine_obs.Trace.dropped tr)
              (Twine_obs.Trace.high_water tr)
          with Sys_error msg ->
            Printf.eprintf "twine serve: cannot write trace: %s\n" msg;
            exit 2)
      | None -> ()
    in
    (match trace with Some file -> write_trace file None | None -> ());
    (match timeline with
    | Some file -> write_trace file (Some (Twine_serve.Serve.threads stats))
    | None -> ());
    Option.iter
      (fun file ->
        write_artifact "twine serve" ~what:"slo artifact" file
          (Twine_serve.Serve.render_slo stats);
        Printf.eprintf "twine serve: %s artifact written to %s\n"
          Twine_serve.Serve.slo_schema file)
      slo_out;
    Option.iter
      (fun file ->
        write_artifact "twine serve" ~what:"sql-stats artifact" file
          (Twine_serve.Serve.render_sqlstats stats);
        Printf.eprintf "twine serve: %s artifact written to %s\n"
          Twine_serve.Serve.sqlstats_schema file)
      sql_stats;
    (match stats.Twine_serve.Serve.slo with
    | Some (spec, ev) when ev.Twine_obs.Slo.ev_violated ->
        Printf.eprintf "twine serve: SLO VIOLATED: %s (%d/%d over threshold)\n"
          (Twine_obs.Slo.render spec) ev.Twine_obs.Slo.ev_overs
          ev.Twine_obs.Slo.ev_total;
        exit 3
    | _ -> ());
    exit 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Replay a seeded open-loop workload against a fleet of TWINE \
             enclaves sharing one simulated machine, coalescing queued \
             requests behind single ECALLs. Prints throughput, p50/p99 \
             latency and shared-EPC interference; $(b,--blame) adds \
             per-request tail attribution; $(b,--slo) evaluates a latency \
             objective with burn-rate alerts over 50 ms virtual windows; \
             $(b,--stream) drops per-request retention for bounded-memory \
             runs; $(b,--chaos) arms a seeded fault schedule and the fleet \
             survives it — crashed enclaves are destroyed and relaunched \
             with their durable state recovered, in-flight batches retry \
             with capped exponential backoff ($(b,--retries), \
             $(b,--backoff), $(b,--hedge)), $(b,--deadline-ns) expires \
             waiting clients and $(b,--shed-depth) sheds load at \
             admission. Exit codes: 0 success, 1 a failed ledger or \
             attribution audit (printed to stderr as its audit line), 2 \
             bad arguments or I/O error (including $(b,--blame) with \
             $(b,--stream)), 3 SLO violated.")
    Term.(const run $ enclaves $ requests $ batch $ seed $ epc_kib $ trace
          $ ledger_out $ blame $ top $ timeline $ mean_gap_ns $ mix $ stream
          $ slo $ slo_out $ chaos $ deadline_ns $ retries $ backoff
          $ shed_depth $ hedge $ sql_stats)

(* --- sql --- *)

let sql_cmd =
  let stmts =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"SQL"
             ~doc:"SQL to execute, in order, against one fresh in-memory \
                   database. Each argument may hold several ;-separated \
                   statements; earlier arguments typically set up schema \
                   and data for the last one.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Wrap the last SQL argument in $(b,EXPLAIN): print the \
                 planned operator tree with estimated rows (from ANALYZE \
                 statistics when present) without executing it.")
  in
  let explain_analyze =
    Arg.(value & flag & info [ "explain-analyze" ]
           ~doc:"Wrap the last SQL argument in $(b,EXPLAIN ANALYZE): \
                 execute it and print the operator tree with estimated \
                 rows next to actual rows, loop counts, pager I/O and \
                 attributed virtual cycles.")
  in
  let ns_per_work =
    Arg.(value & opt float 60. & info [ "ns-per-work" ] ~docv:"NS"
           ~doc:"Virtual nanoseconds per work unit used to render the \
                 $(b,cycles) column of $(b,--explain-analyze) (default \
                 60, the serving fleet's rate; 0 hides the column).")
  in
  let run stmts explain explain_analyze ns_per_work =
    if explain && explain_analyze then begin
      prerr_endline "twine sql: --explain and --explain-analyze are exclusive";
      exit 2
    end;
    let db = Twine_sqldb.Db.open_db ":memory:" in
    Twine_sqldb.Db.set_ns_per_work db ns_per_work;
    let last = List.length stmts - 1 in
    let result =
      try
        List.fold_left
          (fun (i, _) sql ->
            let sql =
              if i = last && explain then "EXPLAIN " ^ sql
              else if i = last && explain_analyze then "EXPLAIN ANALYZE " ^ sql
              else sql
            in
            (i + 1, Some (Twine_sqldb.Db.exec db sql)))
          (0, None) stmts
        |> snd
      with
      | Twine_sqldb.Db.Sql_error msg ->
          Printf.eprintf "twine sql: SQL error: %s\n" msg;
          exit 2
      | Twine_sqldb.Parser.Error msg ->
          Printf.eprintf "twine sql: parse error: %s\n" msg;
          exit 2
      | Twine_sqldb.Token.Error msg ->
          Printf.eprintf "twine sql: lex error: %s\n" msg;
          exit 2
    in
    (match result with
    | Some r ->
        if r.Twine_sqldb.Db.columns <> [] then
          print_endline (String.concat " | " r.Twine_sqldb.Db.columns);
        List.iter
          (fun row ->
            print_endline
              (String.concat " | " (List.map Twine_sqldb.Value.to_string row)))
          r.Twine_sqldb.Db.rows;
        if r.Twine_sqldb.Db.rows = [] && r.Twine_sqldb.Db.affected > 0 then
          Printf.printf "(%d row(s) affected)\n" r.Twine_sqldb.Db.affected
    | None -> ());
    (* every executed statement's work = operators + overhead, exactly *)
    let audits = List.map Twine_sqldb.Db.audit (Twine_sqldb.Db.profiles db) in
    Twine_sqldb.Db.close db;
    enforce "sql" audits;
    exit 0
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Execute SQL against a fresh in-memory TWINE database and print \
             the last result. $(b,--explain) prints the planned operator \
             tree with row estimates; $(b,--explain-analyze) executes and \
             adds actual rows, loops, pager I/O and attributed virtual \
             cycles per operator. Exit codes: 0 success, 1 a failed \
             statement audit, work = operators + overhead (printed to \
             stderr as its audit line), 2 parse/execution error or bad \
             arguments.")
    Term.(const run $ stmts $ explain $ explain_analyze $ ns_per_work)

(* --- diff --- *)

let diff_cmd =
  let file n =
    Arg.(required & pos n (some file) None
         & info [] ~docv:(if n = 0 then "BASE" else "CURRENT")
             ~doc:"Ledger JSON written by $(b,twine run --ledger).")
  in
  let run base_path cur_path =
    let load path =
      match Twine_obs.Ledger.of_string (read_file path) with
      | Ok s -> s
      | Error msg ->
          Printf.eprintf "twine diff: %s: %s\n" path msg;
          exit 2
      | exception Sys_error msg ->
          Printf.eprintf "twine diff: %s\n" msg;
          exit 2
    in
    let base = load base_path and current = load cur_path in
    print_string (Twine_obs.Ledger.render_diff ~base ~current ())
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Attribute the runtime difference between two runs: ranked \
             per-account deltas of their cycle ledgers, with the hot guest \
             functions inside the top accounts when the runs were profiled.")
    Term.(const run $ file 0 $ file 1)

(* --- validate --- *)

let validate_cmd =
  let run path =
    match Twine_wasm.Validate.check_module (load_module path) with
    | () ->
        print_endline "module is valid";
        exit 0
    | exception Twine_wasm.Validate.Invalid msg ->
        Printf.eprintf "invalid: %s\n" msg;
        exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Type-check a Wasm module.") Term.(const run $ path_arg)

(* --- wat2wasm --- *)

let wat2wasm_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Output path.")
  in
  let run path out =
    let m = load_module path in
    Twine_wasm.Validate.check_module m;
    let bin = Twine_wasm.Binary.encode m in
    let out =
      match out with Some o -> o | None -> Filename.remove_extension path ^ ".wasm"
    in
    let oc = open_out_bin out in
    output_string oc bin;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" out (String.length bin)
  in
  Cmd.v
    (Cmd.info "wat2wasm" ~doc:"Assemble WebAssembly text format to binary.")
    Term.(const run $ path_arg $ out)

(* --- inspect --- *)

let inspect_cmd =
  let run path =
    let m = load_module path in
    let open Twine_wasm.Ast in
    Printf.printf "types:    %d\n" (Array.length m.types);
    Printf.printf "imports:  %d\n" (List.length m.imports);
    List.iter
      (fun im ->
        Printf.printf "  %s.%s : %s\n" im.imp_module im.imp_name
          (match im.imp_desc with
          | Import_func ti -> Twine_wasm.Types.string_of_functype m.types.(ti)
          | Import_memory _ -> "memory"
          | Import_table _ -> "table"
          | Import_global _ -> "global"))
      m.imports;
    Printf.printf "functions: %d\n" (Array.length m.funcs);
    Printf.printf "memory:   %s\n"
      (match m.memories with
      | Some l ->
          Printf.sprintf "%d page(s)%s" l.min
            (match l.max with Some mx -> Printf.sprintf " (max %d)" mx | None -> "")
      | None -> "none");
    Printf.printf "globals:  %d\n" (Array.length m.globals);
    Printf.printf "exports:  %d\n" (List.length m.exports);
    List.iter
      (fun e ->
        Printf.printf "  %s : %s\n" e.exp_name
          (match e.exp_desc with
          | Export_func i -> "func #" ^ string_of_int i
          | Export_memory _ -> "memory"
          | Export_table _ -> "table"
          | Export_global i -> "global #" ^ string_of_int i))
      m.exports;
    Printf.printf "valid:    %b\n" (Twine_wasm.Validate.is_valid m)
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Print module structure.") Term.(const run $ path_arg)

let () =
  let info =
    Cmd.info "twine" ~version:"1.0.0"
      ~doc:"A trusted WebAssembly runtime for (simulated) Intel SGX enclaves."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; serve_cmd; sql_cmd; diff_cmd; validate_cmd; wat2wasm_cmd;
            inspect_cmd ]))

(* Chaos schedules: a small textual grammar over Fault rules, so a CLI
   flag (or a bench sweep) can describe a seeded fault schedule without
   writing OCaml. The spec keeps activation windows *relative* to an
   anchor (the serving phase's start): [to_plan ~t0] rebases them onto
   the machine clock at arm time, which is what lets one spec string
   mean "crash mid-steady-state" for any setup duration. *)

type rule_spec = {
  c_site : string;
  c_action : Fault.action;
  c_nth : int option;
  c_prob : float;
  c_count : int option;
  c_from_ns : int option;  (* relative to the anchor passed to [to_plan] *)
  c_until_ns : int option;
}

type spec = { c_seed : string; c_rules : rule_spec list }

let default_seed = "chaos"

(* --- parsing ---

   SPEC  := item (';' item)*
   item  := 'seed=' NAME | rule
   rule  := SITE '=' ACTION tail*
   ACTION:= 'crash' | 'fail' | 'drop' | 'corrupt' | 'torn:' FLOAT
          | 'delay:' DUR
   tail  := '@' N          fire on exactly the N-th operation
          | '%' FLOAT      per-operation probability
          | 'x' N          cap total injections
          | '[' DUR '..' DUR ']'   activation window (relative virtual
                                   time; either bound may be empty)
   DUR   := INT ('ns' | 'us' | 'ms' | 's')?   (default ns) *)

let parse_duration s =
  let num, mult =
    if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "ns" then
      (String.sub s 0 (String.length s - 2), 1)
    else if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "us"
    then (String.sub s 0 (String.length s - 2), 1_000)
    else if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "ms"
    then (String.sub s 0 (String.length s - 2), 1_000_000)
    else if String.length s >= 1 && s.[String.length s - 1] = 's' then
      (String.sub s 0 (String.length s - 1), 1_000_000_000)
    else (s, 1)
  in
  match int_of_string_opt num with
  | Some n when n >= 0 -> Some (n * mult)
  | _ -> None

let parse_action s =
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "crash" -> Some Fault.Crash
      | "fail" -> Some Fault.Fail
      | "drop" -> Some Fault.Drop
      | "corrupt" -> Some Fault.Corrupt
      | _ -> None)
  | Some i -> (
      let head = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "torn" -> (
          match float_of_string_opt arg with
          | Some f when f >= 0. && f <= 1. -> Some (Fault.Torn f)
          | _ -> None)
      | "delay" -> (
          match parse_duration arg with
          | Some ns -> Some (Fault.Delay ns)
          | None -> None)
      | _ -> None)

(* Split [s] at the first unconsumed tail marker, returning the action
   text and the list of tail tokens (marker, payload). Window brackets
   contain '.' and digits only, so a linear scan suffices. *)
let split_tails s =
  let n = String.length s in
  (* the action may itself contain ':' args with digits; 'x' only marks
     a tail when followed by a digit, so "crash" vs "...x3" disambiguate *)
  let rec scan i =
    if i >= n then n
    else
      match s.[i] with
      | '@' | '%' | '[' -> i
      | 'x' when i + 1 < n && s.[i + 1] >= '0' && s.[i + 1] <= '9' -> i
      | _ -> scan (i + 1)
  in
  let cut = scan 0 in
  let action = String.sub s 0 cut in
  let rec tails i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '[' -> (
          match String.index_from_opt s i ']' with
          | None -> List.rev (('!', "unterminated window") :: acc)
          | Some j -> tails (j + 1) (('[', String.sub s (i + 1) (j - i - 1)) :: acc))
      | ('@' | '%' | 'x') as m ->
          let j = ref (i + 1) in
          while
            !j < n && (match s.[!j] with '@' | '%' | 'x' | '[' -> false | _ -> true)
          do
            incr j
          done;
          tails !j ((m, String.sub s (i + 1) (!j - i - 1)) :: acc)
      | _ -> List.rev (('!', "bad tail") :: acc)
  in
  (action, tails cut [])

let parse_rule item =
  match String.index_opt item '=' with
  | None -> Error (Printf.sprintf "chaos: %S is not SITE=ACTION" item)
  | Some i -> (
      let site = String.sub item 0 i in
      let rest = String.sub item (i + 1) (String.length item - i - 1) in
      if site = "" then Error "chaos: empty site"
      else if not (List.mem site Fault.sites) then
        Error (Printf.sprintf "chaos: unknown site %S" site)
      else
        let action_txt, tails = split_tails rest in
        match parse_action action_txt with
        | None -> Error (Printf.sprintf "chaos: unknown action %S" action_txt)
        | Some action ->
            let r =
              ref
                {
                  c_site = site;
                  c_action = action;
                  c_nth = None;
                  c_prob = 0.;
                  c_count = None;
                  c_from_ns = None;
                  c_until_ns = None;
                }
            in
            let err = ref None in
            List.iter
              (fun (m, payload) ->
                if !err = None then
                  match m with
                  | '@' -> (
                      match int_of_string_opt payload with
                      | Some n when n >= 1 -> r := { !r with c_nth = Some n }
                      | _ -> err := Some ("chaos: bad @nth " ^ payload))
                  | '%' -> (
                      match float_of_string_opt payload with
                      | Some p when p >= 0. && p <= 1. ->
                          r := { !r with c_prob = p }
                      | _ -> err := Some ("chaos: bad %prob " ^ payload))
                  | 'x' -> (
                      match int_of_string_opt payload with
                      | Some n when n >= 1 -> r := { !r with c_count = Some n }
                      | _ -> err := Some ("chaos: bad xcount " ^ payload))
                  | '[' -> (
                      (* FROM..UNTIL, either side may be empty *)
                      let split =
                        let rec find i =
                          if i + 1 >= String.length payload then None
                          else if payload.[i] = '.' && payload.[i + 1] = '.' then
                            Some i
                          else find (i + 1)
                        in
                        find 0
                      in
                      match split with
                      | None -> err := Some ("chaos: bad window " ^ payload)
                      | Some i ->
                          let a = String.sub payload 0 i in
                          let b =
                            String.sub payload (i + 2) (String.length payload - i - 2)
                          in
                          let from_ns =
                            if a = "" then Ok None
                            else
                              match parse_duration a with
                              | Some v -> Ok (Some v)
                              | None -> Error a
                          in
                          let until_ns =
                            if b = "" then Ok None
                            else
                              match parse_duration b with
                              | Some v -> Ok (Some v)
                              | None -> Error b
                          in
                          (match (from_ns, until_ns) with
                          | Ok f, Ok u ->
                              (match (f, u) with
                              | Some f', Some u' when u' <= f' ->
                                  err := Some ("chaos: empty window " ^ payload)
                              | _ ->
                                  r := { !r with c_from_ns = f; c_until_ns = u })
                          | Error d, _ | _, Error d ->
                              err := Some ("chaos: bad duration " ^ d)))
                  | _ -> err := Some ("chaos: " ^ payload))
              tails;
            (match (!r).c_nth with
            | None when (!r).c_prob = 0. ->
                err := Some (Printf.sprintf "chaos: rule for %s never fires (no @nth or %%prob)" site)
            | _ -> ());
            (match !err with Some e -> Error e | None -> Ok !r))

let parse s =
  let items =
    List.filter (fun x -> x <> "") (String.split_on_char ';' (String.trim s))
  in
  if items = [] then Error "chaos: empty spec"
  else
    let seed = ref default_seed in
    let rules = ref [] in
    let err = ref None in
    List.iter
      (fun item ->
        if !err = None then
          let item = String.trim item in
          if String.length item > 5 && String.sub item 0 5 = "seed=" then
            seed := String.sub item 5 (String.length item - 5)
          else
            match parse_rule item with
            | Ok r -> rules := r :: !rules
            | Error e -> err := Some e)
      items;
    match !err with
    | Some e -> Error e
    | None ->
        if !rules = [] then Error "chaos: no rules"
        else Ok { c_seed = !seed; c_rules = List.rev !rules }

(* --- rendering (canonical; parse (render s) = s) --- *)

let render_action = function
  | Fault.Crash -> "crash"
  | Fault.Fail -> "fail"
  | Fault.Drop -> "drop"
  | Fault.Corrupt -> "corrupt"
  | Fault.Torn f -> Printf.sprintf "torn:%g" f
  | Fault.Delay ns -> Printf.sprintf "delay:%d" ns

let render_rule r =
  let b = Buffer.create 32 in
  Buffer.add_string b r.c_site;
  Buffer.add_char b '=';
  Buffer.add_string b (render_action r.c_action);
  (match r.c_nth with
  | Some n -> Buffer.add_string b (Printf.sprintf "@%d" n)
  | None -> ());
  if r.c_prob > 0. then Buffer.add_string b (Printf.sprintf "%%%g" r.c_prob);
  (match r.c_count with
  | Some n -> Buffer.add_string b (Printf.sprintf "x%d" n)
  | None -> ());
  (match (r.c_from_ns, r.c_until_ns) with
  | None, None -> ()
  | f, u ->
      Buffer.add_char b '[';
      (match f with Some v -> Buffer.add_string b (string_of_int v) | None -> ());
      Buffer.add_string b "..";
      (match u with Some v -> Buffer.add_string b (string_of_int v) | None -> ());
      Buffer.add_char b ']');
  Buffer.contents b

let render s =
  String.concat ";"
    ((if s.c_seed = default_seed then [] else [ "seed=" ^ s.c_seed ])
    @ List.map render_rule s.c_rules)

(* Rebase the relative windows onto the virtual clock: [t0] is the
   anchor (e.g. the serving phase's start). *)
let to_plan ?(t0 = 0) s =
  let rules =
    List.map
      (fun r ->
        Fault.rule ?nth:r.c_nth ~prob:r.c_prob ?count:r.c_count
          ?from_ns:(Option.map (fun v -> t0 + v) r.c_from_ns)
          ?until_ns:(Option.map (fun v -> t0 + v) r.c_until_ns)
          r.c_site r.c_action)
      s.c_rules
  in
  Fault.plan ~seed:s.c_seed rules

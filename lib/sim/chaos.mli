(** Chaos schedules: textual fault plans for the serving fleet.

    A chaos spec is a seeded list of {!Fault} rules written in a small
    grammar, so a CLI flag or a bench sweep can describe deterministic
    fault injection without constructing rules in code:

    {v SPEC  := item (';' item)*
item  := 'seed=' NAME | rule
rule  := SITE '=' ACTION tail*
ACTION:= 'crash' | 'fail' | 'drop' | 'corrupt'
       | 'torn:' FLOAT | 'delay:' DUR
tail  := '@' N        fire on exactly the N-th operation (1-based)
       | '%' FLOAT    per-operation probability
       | 'x' N        cap total injections from this rule
       | '[' DUR '..' DUR ']'  activation window, relative virtual
                               time (either bound may be empty)
DUR   := INT ('ns' | 'us' | 'ms' | 's')?        default ns v}

    Examples: ["enclave.ecall=crash@200"] (crash the 200th ECALL),
    ["seed=c1;enclave.ecall=fail%0.01x5[10ms..50ms]"] (up to five
    transient entry failures at 1% per ECALL, only between 10 ms and
    50 ms of serving time). Windows are {e relative}: {!to_plan}
    rebases them onto the machine clock at arm time. *)

type rule_spec = {
  c_site : string;
  c_action : Fault.action;
  c_nth : int option;
  c_prob : float;
  c_count : int option;
  c_from_ns : int option;  (** relative to the [to_plan] anchor *)
  c_until_ns : int option;
}

type spec = { c_seed : string; c_rules : rule_spec list }

val default_seed : string
(** ["chaos"], used when the spec carries no [seed=] item. *)

val parse : string -> (spec, string) result
(** Parse a spec string. A SITE must be one of {!Fault.sites}. Errors
    carry a human-readable reason (the CLI maps them to exit 2). *)

val render : spec -> string
(** Canonical text of a spec; [parse (render s)] round-trips. *)

val to_plan : ?t0:int -> spec -> Fault.plan
(** Build the fault plan, rebasing every relative activation window by
    [t0] (default 0) — pass the serving phase's virtual start time so a
    window like [[10ms..50ms]] means "10–50 ms into serving" regardless
    of how much virtual time setup consumed. *)

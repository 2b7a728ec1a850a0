(* The reference evaluator for the vjs differential tests: the tree
   walker the engine used before it compiled programs to closures. It
   walks the AST with a string-keyed environment per scope and ticks once
   per evaluated node, so the compiled engine must agree with it on
   values, errors, steps, charged cycles and console output. *)

open Vjs.Jsvalue
module Jsast = Vjs.Jsast

type env = { tbl : (string, t ref) Hashtbl.t; parent : env option }

let env_create parent = { tbl = Hashtbl.create 8; parent }
let env_define env name v = Hashtbl.replace env.tbl name (ref v)

let rec env_lookup env name =
  match Hashtbl.find_opt env.tbl name with
  | Some r -> Some r
  | None -> ( match env.parent with Some p -> env_lookup p name | None -> None)

let i32 v = Int32.of_int (to_int32 v)

exception Return_exc of t
exception Break_exc
exception Continue_exc
exception Throw_exc of t

type interp = { charge : int -> unit; mutable steps : int; max_steps : int }

let cost_per_node = 22

let create ?(charge = fun _ -> ()) ?(max_steps = 50_000_000) () =
  { charge; steps = 0; max_steps }

(* the budget bounds a single top-level entry, not the engine lifetime *)
let reset_steps it = it.steps <- 0

let tick it =
  it.steps <- it.steps + 1;
  if it.steps > it.max_steps then raise (Js_error "script step budget exceeded");
  it.charge cost_per_node

let js_fail fmt = Printf.ksprintf (fun s -> raise (Js_error s)) fmt

(* builtin methods dispatched on the receiver kind *)
let string_method it recv name args =
  let arg n = match List.nth_opt args n with Some v -> v | None -> Undefined in
  let num n = int_of_float (to_number (arg n)) in
  match name with
  | "charCodeAt" ->
      let i = num 0 in
      if i < 0 || i >= String.length recv then Num Float.nan
      else Num (float_of_int (Char.code recv.[i]))
  | "charAt" ->
      let i = num 0 in
      if i < 0 || i >= String.length recv then Str "" else Str (String.make 1 recv.[i])
  | "indexOf" -> (
      let needle = to_string (arg 0) in
      let hay = recv in
      let nh = String.length hay and nn = String.length needle in
      let rec go i = if i + nn > nh then -1 else if String.sub hay i nn = needle then i else go (i + 1) in
      match go 0 with i -> Num (float_of_int i))
  | "substring" ->
      let a = max 0 (min (String.length recv) (num 0)) in
      let b =
        match List.nth_opt args 1 with
        | Some v -> max 0 (min (String.length recv) (int_of_float (to_number v)))
        | None -> String.length recv
      in
      let lo = min a b and hi = max a b in
      Str (String.sub recv lo (hi - lo))
  | "slice" ->
      let n = String.length recv in
      let norm i = if i < 0 then max 0 (n + i) else min n i in
      let a = norm (num 0) in
      let b = match List.nth_opt args 1 with Some v -> norm (int_of_float (to_number v)) | None -> n in
      if a >= b then Str "" else Str (String.sub recv a (b - a))
  | "toUpperCase" -> Str (String.uppercase_ascii recv)
  | "toLowerCase" -> Str (String.lowercase_ascii recv)
  | "split" ->
      let sep = to_string (arg 0) in
      if sep = "" then
        Arr (vec_of_list (List.init (String.length recv) (fun i -> Str (String.make 1 recv.[i]))))
      else begin
        let parts = ref [] and start = ref 0 in
        let nh = String.length recv and nn = String.length sep in
        let i = ref 0 in
        while !i + nn <= nh do
          if String.sub recv !i nn = sep then begin
            parts := String.sub recv !start (!i - !start) :: !parts;
            i := !i + nn;
            start := !i
          end
          else incr i
        done;
        parts := String.sub recv !start (nh - !start) :: !parts;
        ignore it;
        Arr (vec_of_list (List.rev_map (fun s -> Str s) !parts))
      end
  | _ -> js_fail "string has no method %s" name

let rec array_method it recv name args =
  match name with
  | "map" -> (
      match args with
      | f :: _ ->
          Arr (vec_of_list (List.map (fun x -> call it f [ x ]) (vec_to_list recv)))
      | [] -> js_fail "map expects a function")
  | "filter" -> (
      match args with
      | f :: _ ->
          Arr (vec_of_list (List.filter (fun x -> truthy (call it f [ x ])) (vec_to_list recv)))
      | [] -> js_fail "filter expects a function")
  | "forEach" -> (
      match args with
      | f :: _ ->
          List.iter (fun x -> ignore (call it f [ x ])) (vec_to_list recv);
          Undefined
      | [] -> js_fail "forEach expects a function")
  | "reduce" -> (
      match args with
      | f :: rest ->
          let items = vec_to_list recv in
          let init, items =
            match (rest, items) with
            | seed :: _, _ -> (seed, items)
            | [], x :: xs -> (x, xs)
            | [], [] -> js_fail "reduce of empty array with no initial value"
          in
          List.fold_left (fun acc x -> call it f [ acc; x ]) init items
      | [] -> js_fail "reduce expects a function")
  | "concat" -> (
      match args with
      | Arr other :: _ -> Arr (vec_of_list (vec_to_list recv @ vec_to_list other))
      | v :: _ -> Arr (vec_of_list (vec_to_list recv @ [ v ]))
      | [] -> Arr (vec_of_list (vec_to_list recv)))
  | "reverse" ->
      let items = List.rev (vec_to_list recv) in
      List.iteri (fun i x -> vec_set recv i x) items;
      Arr recv
  | "push" ->
      List.iter (vec_push recv) args;
      Num (float_of_int recv.len)
  | "pop" -> vec_pop recv
  | "join" ->
      let sep = match args with v :: _ -> to_string v | [] -> "," in
      Str (String.concat sep (List.map to_string (vec_to_list recv)))
  | "indexOf" ->
      let target = match args with v :: _ -> v | [] -> Undefined in
      let rec go i =
        if i >= recv.len then -1
        else if strict_equal (vec_get recv i) target then i
        else go (i + 1)
      in
      Num (float_of_int (go 0))
  | "slice" ->
      let n = recv.len in
      let norm v = let i = int_of_float (to_number v) in if i < 0 then max 0 (n + i) else min n i in
      let a = match args with v :: _ -> norm v | [] -> 0 in
      let b = match args with _ :: v :: _ -> norm v | _ -> n in
      Arr (vec_of_list (List.filteri (fun i _ -> i >= a && i < b) (vec_to_list recv)))
  | _ -> js_fail "array has no method %s" name

and eval_expr it env (e : Jsast.expr) : t =
  tick it;
  match e with
  | Jsast.Enum n -> Num n
  | Jsast.Estr s -> Str s
  | Jsast.Ebool b -> Bool b
  | Jsast.Enull -> Null
  | Jsast.Eundefined -> Undefined
  | Jsast.Eident name -> (
      match env_lookup env name with
      | Some r -> !r
      | None -> js_fail "ReferenceError: %s is not defined" name)
  | Jsast.Earray items -> Arr (vec_of_list (List.map (eval_expr it env) items))
  | Jsast.Eobject fields ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k (eval_expr it env v)) fields;
      Obj tbl
  | Jsast.Efun (params, body) -> make_fun it "anonymous" params body env
  | Jsast.Ecall (f, args) ->
      let fv = eval_expr it env f in
      let argv = List.map (eval_expr it env) args in
      call it fv argv
  | Jsast.Emethod (recv, name, args) -> (
      let rv = eval_expr it env recv in
      let argv = List.map (eval_expr it env) args in
      match rv with
      | Str s -> string_method it s name argv
      | Arr v -> array_method it v name argv
      | Obj tbl -> (
          match Hashtbl.find_opt tbl name with
          | Some fv -> call it fv argv
          | None -> js_fail "object has no method %s" name)
      | other -> js_fail "%s has no method %s" (type_name other) name)
  | Jsast.Eprop (recv, name) -> (
      let rv = eval_expr it env recv in
      match (rv, name) with
      | Str s, "length" -> Num (float_of_int (String.length s))
      | Arr v, "length" -> Num (float_of_int v.len)
      | Obj tbl, _ -> (
          match Hashtbl.find_opt tbl name with Some v -> v | None -> Undefined)
      | _ -> js_fail "cannot read property %s of %s" name (type_name rv))
  | Jsast.Eindex (recv, idx) -> (
      let rv = eval_expr it env recv in
      let iv = eval_expr it env idx in
      match rv with
      | Arr v -> vec_get v (int_of_float (to_number iv))
      | Str s ->
          let i = int_of_float (to_number iv) in
          if i < 0 || i >= String.length s then Undefined else Str (String.make 1 s.[i])
      | Obj tbl -> (
          match Hashtbl.find_opt tbl (to_string iv) with Some v -> v | None -> Undefined)
      | _ -> js_fail "cannot index %s" (type_name rv))
  | Jsast.Eunop (op, a) -> (
      let v = eval_expr it env a in
      match op with
      | "-" -> Num (-.to_number v)
      | "+" -> Num (to_number v)
      | "!" -> Bool (not (truthy v))
      | "~" -> Num (Int32.to_float (Int32.lognot (i32 v)))
      | _ -> js_fail "unknown unary %s" op)
  | Jsast.Ebinop (op, a, b) -> eval_binop it env op a b
  | Jsast.Eassign (target, value) -> (
      let v = eval_expr it env value in
      (match target with
      | Jsast.Eident name -> (
          match env_lookup env name with
          | Some r -> r := v
          | None ->
              (* implicit global, as in sloppy-mode JS *)
              let rec top e = match e.parent with Some p -> top p | None -> e in
              env_define (top env) name v)
      | Jsast.Eindex (recv, idx) -> (
          let rv = eval_expr it env recv in
          let iv = eval_expr it env idx in
          match rv with
          | Arr vec -> vec_set vec (int_of_float (to_number iv)) v
          | Obj tbl -> Hashtbl.replace tbl (to_string iv) v
          | _ -> js_fail "cannot index-assign %s" (type_name rv))
      | Jsast.Eprop (recv, name) -> (
          let rv = eval_expr it env recv in
          match rv with
          | Obj tbl -> Hashtbl.replace tbl name v
          | _ -> js_fail "cannot set property %s of %s" name (type_name rv))
      | _ -> js_fail "invalid assignment target");
      v)
  | Jsast.Econd (c, a, b) ->
      if truthy (eval_expr it env c) then eval_expr it env a else eval_expr it env b
  | Jsast.Etypeof (Jsast.Eident name) -> (
      match env_lookup env name with
      | Some r -> Str (type_name !r)
      | None -> Str "undefined")
  | Jsast.Etypeof e -> Str (type_name (eval_expr it env e))

and eval_binop it env op a b =
  match op with
  | "&&" ->
      let va = eval_expr it env a in
      if truthy va then eval_expr it env b else va
  | "||" ->
      let va = eval_expr it env a in
      if truthy va then va else eval_expr it env b
  | _ -> (
      let va = eval_expr it env a in
      let vb = eval_expr it env b in
      match op with
      | "+" -> (
          match (va, vb) with
          | Str _, _ | _, Str _ -> Str (to_string va ^ to_string vb)
          | _ -> Num (to_number va +. to_number vb))
      | "-" -> Num (to_number va -. to_number vb)
      | "*" -> Num (to_number va *. to_number vb)
      | "/" -> Num (to_number va /. to_number vb)
      | "%" -> Num (Float.rem (to_number va) (to_number vb))
      | "<" -> compare_values va vb ( < ) ( < )
      | "<=" -> compare_values va vb ( <= ) ( <= )
      | ">" -> compare_values va vb ( > ) ( > )
      | ">=" -> compare_values va vb ( >= ) ( >= )
      | "==" -> Bool (loose_equal va vb)
      | "!=" -> Bool (not (loose_equal va vb))
      | "===" -> Bool (strict_equal va vb)
      | "!==" -> Bool (not (strict_equal va vb))
      | "&" -> Num (Int32.to_float (Int32.logand (i32 va) (i32 vb)))
      | "|" -> Num (Int32.to_float (Int32.logor (i32 va) (i32 vb)))
      | "^" -> Num (Int32.to_float (Int32.logxor (i32 va) (i32 vb)))
      | "<<" ->
          Num (Int32.to_float (Int32.shift_left (i32 va) (Int32.to_int (i32 vb) land 31)))
      | ">>" ->
          Num (Int32.to_float (Int32.shift_right (i32 va) (Int32.to_int (i32 vb) land 31)))
      | _ -> js_fail "unknown operator %s" op)

and compare_values a b numcmp strcmp =
  match (a, b) with
  | Str x, Str y -> Bool (strcmp x y)
  | _ -> Bool (numcmp (to_number a) (to_number b))

and make_fun it fname params body env =
  Fun { fname; call = (fun args -> call_body it params body env (Array.to_list args)) }

and call_body it params body env argv =
  let fenv = env_create (Some env) in
  let rec bind params args =
    match (params, args) with
    | [], _ -> ()
    | p :: ps, [] ->
        env_define fenv p Undefined;
        bind ps []
    | p :: ps, a :: rest ->
        env_define fenv p a;
        bind ps rest
  in
  bind params argv;
  (try
     exec_stmts it fenv body;
     Undefined
   with Return_exc v -> v)

and call _it fv argv =
  match fv with
  | Fun f -> f.call (Array.of_list argv)
  | Native (_, f) -> f argv
  | other -> js_fail "%s is not a function" (type_name other)

and exec_stmt it env (s : Jsast.stmt) : unit =
  tick it;
  match s with
  | Jsast.Sexpr e -> ignore (eval_expr it env e)
  | Jsast.Svar (name, init) ->
      let v = match init with Some e -> eval_expr it env e | None -> Undefined in
      env_define env name v
  | Jsast.Sif (c, t, f) ->
      if truthy (eval_expr it env c) then exec_stmts it (env_create (Some env)) t
      else exec_stmts it (env_create (Some env)) f
  | Jsast.Swhile (c, body) -> (
      try
        while truthy (eval_expr it env c) do
          try exec_stmts it (env_create (Some env)) body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Jsast.Sfor (init, cond, step, body) -> (
      let fenv = env_create (Some env) in
      (match init with Some s -> exec_stmt it fenv s | None -> ());
      let check () = match cond with Some c -> truthy (eval_expr it fenv c) | None -> true in
      try
        while check () do
          (try exec_stmts it (env_create (Some fenv)) body with Continue_exc -> ());
          match step with Some e -> ignore (eval_expr it fenv e) | None -> ()
        done
      with Break_exc -> ())
  | Jsast.Sreturn e ->
      raise (Return_exc (match e with Some e -> eval_expr it env e | None -> Undefined))
  | Jsast.Sbreak -> raise Break_exc
  | Jsast.Scontinue -> raise Continue_exc
  | Jsast.Sfundecl (name, params, body) ->
      env_define env name (make_fun it name params body env)
  | Jsast.Sblock body -> exec_stmts it (env_create (Some env)) body
  | Jsast.Sthrow e -> raise (Throw_exc (eval_expr it env e))
  | Jsast.Stry (body, catch, fin) ->
      let run_finally () = exec_stmts it (env_create (Some env)) fin in
      (try
         (try exec_stmts it (env_create (Some env)) body with
         | Throw_exc v -> (
             match catch with
             | Some (binding, cbody) ->
                 let cenv = env_create (Some env) in
                 env_define cenv binding v;
                 exec_stmts it cenv cbody
             | None -> raise (Throw_exc v))
         | Js_error msg -> (
             (* runtime errors are catchable, surfaced as strings *)
             match catch with
             | Some (binding, cbody) ->
                 let cenv = env_create (Some env) in
                 env_define cenv binding (Str msg);
                 exec_stmts it cenv cbody
             | None -> raise (Js_error msg)))
       with e ->
         run_finally ();
         raise e);
      run_finally ()

and exec_stmts it env stmts = List.iter (exec_stmt it env) stmts

(* A [break] or [continue] must sit in a loop of its own function; the
   whole program is rejected before any of it runs, as the engine's
   compiler does. *)
exception Stray of string

let rec check_stmts in_loop body = List.iter (check_stmt in_loop) body

and check_stmt in_loop (s : Jsast.stmt) =
  match s with
  | Jsast.Sbreak -> if not in_loop then raise (Stray "SyntaxError: break outside a loop")
  | Jsast.Scontinue -> if not in_loop then raise (Stray "SyntaxError: continue outside a loop")
  | Jsast.Sexpr e | Jsast.Sthrow e | Jsast.Svar (_, Some e) | Jsast.Sreturn (Some e) -> check_expr e
  | Jsast.Svar (_, None) | Jsast.Sreturn None -> ()
  | Jsast.Sif (c, t, f) ->
      check_expr c;
      check_stmts in_loop t;
      check_stmts in_loop f
  | Jsast.Swhile (c, body) ->
      check_expr c;
      check_stmts true body
  | Jsast.Sfor (init, cond, step, body) ->
      Option.iter (check_stmt in_loop) init;
      Option.iter check_expr cond;
      Option.iter check_expr step;
      check_stmts true body
  | Jsast.Sfundecl (_, _, body) -> check_stmts false body
  | Jsast.Sblock body -> check_stmts in_loop body
  | Jsast.Stry (body, catch, fin) ->
      check_stmts in_loop body;
      Option.iter (fun (_, c) -> check_stmts in_loop c) catch;
      check_stmts in_loop fin

and check_expr (e : Jsast.expr) =
  match e with
  | Jsast.Efun (_, body) -> check_stmts false body
  | Jsast.Enum _ | Jsast.Estr _ | Jsast.Ebool _ | Jsast.Enull | Jsast.Eundefined | Jsast.Eident _ -> ()
  | Jsast.Earray es -> List.iter check_expr es
  | Jsast.Eobject fields -> List.iter (fun (_, e) -> check_expr e) fields
  | Jsast.Ecall (f, args) -> List.iter check_expr (f :: args)
  | Jsast.Emethod (recv, _, args) -> List.iter check_expr (recv :: args)
  | Jsast.Eprop (e, _) | Jsast.Eunop (_, e) | Jsast.Etypeof e -> check_expr e
  | Jsast.Eindex (a, b) | Jsast.Ebinop (_, a, b) ->
      check_expr a;
      check_expr b
  | Jsast.Eassign (target, value) ->
      (* the value first, in the order it is evaluated *)
      check_expr value;
      check_expr target
  | Jsast.Econd (c, a, b) -> List.iter check_expr [ c; a; b ]

(* the engine's top level: hoisted declarations charge nothing, and a
   top-level expression statement charges only its expression *)
let run it globals prog =
  reset_steps it;
  let result = ref Undefined in
  let go () =
    check_stmts false prog;
    List.iter
      (function
        | Jsast.Sfundecl (name, params, body) ->
            env_define globals name (make_fun it name params body globals)
        | _ -> ())
      prog;
    List.iter
      (function
        | Jsast.Sfundecl _ -> ()
        | Jsast.Sexpr e -> result := eval_expr it globals e
        | s -> exec_stmt it globals s)
      prog
  in
  match go () with
  | () -> Ok !result
  | exception Stray msg -> Error msg
  | exception Js_error msg -> Error msg
  | exception Throw_exc v -> Error ("uncaught: " ^ to_string v)
  | exception Return_exc _ -> Error "return outside function"

let steps it = it.steps

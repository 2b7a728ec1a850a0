exception Sema_error of { loc : Ast.loc; msg : string }

let fail loc fmt = Printf.ksprintf (fun msg -> raise (Sema_error { loc; msg })) fmt

type scope = { vars : (string, Ast.ty) Hashtbl.t; parent : scope option }

let new_scope parent = { vars = Hashtbl.create 8; parent }

let rec lookup_var scope name =
  match Hashtbl.find_opt scope.vars name with
  | Some t -> Some t
  | None -> ( match scope.parent with Some p -> lookup_var p name | None -> None)

let declare scope loc name ty =
  if Hashtbl.mem scope.vars name then fail loc "duplicate declaration of %s" name;
  Hashtbl.replace scope.vars name ty

let is_lvalue (e : Ast.expr) =
  match e.desc with
  | Ast.Var _ -> (match e.ty with Ast.Tarray _ -> false | _ -> true)
  | Ast.Unary (Ast.Deref, _) | Ast.Index (_, _) -> true
  | _ -> false

(* permissive scalar compatibility, as in pre-ANSI C: int/char/pointers
   interconvert freely; only void is special. *)
let scalar = function Ast.Tvoid -> false | _ -> true

let decay = function Ast.Tarray (t, _) -> Ast.Tptr t | t -> t

type env = {
  globals : (string, Ast.ty) Hashtbl.t;
  funcs : (string, Ast.func) Hashtbl.t;
}

let rec check_expr env scope (e : Ast.expr) : unit =
  let loc = e.loc in
  (match e.desc with
  | Ast.Int_lit _ -> e.ty <- Ast.Tint
  | Ast.Char_lit _ -> e.ty <- Ast.Tchar
  | Ast.Str_lit _ -> e.ty <- Ast.Tptr Ast.Tchar
  | Ast.Var name -> (
      match lookup_var scope name with
      | Some t -> e.ty <- t
      | None -> (
          match Hashtbl.find_opt env.globals name with
          | Some t -> e.ty <- t
          | None -> fail loc "unknown variable %s" name))
  | Ast.Unary (op, a) -> (
      check_expr env scope a;
      match op with
      | Ast.Neg | Ast.Bitnot ->
          if not (scalar a.ty) then fail loc "arithmetic on void";
          e.ty <- Ast.Tint
      | Ast.Lognot -> e.ty <- Ast.Tint
      | Ast.Deref -> (
          match decay a.ty with
          | Ast.Tptr t -> e.ty <- t
          | other -> fail loc "cannot dereference %s" (Format.asprintf "%a" Ast.pp_ty other))
      | Ast.Addrof ->
          if not (is_lvalue a) && not (match a.ty with Ast.Tarray _ -> true | _ -> false)
          then fail loc "cannot take the address of this expression";
          e.ty <- (match a.ty with Ast.Tarray (t, _) -> Ast.Tptr t | t -> Ast.Tptr t))
  | Ast.Binary (op, a, b) -> (
      check_expr env scope a;
      check_expr env scope b;
      if not (scalar a.ty && scalar b.ty) then fail loc "arithmetic on void";
      match op with
      | Ast.Add | Ast.Sub -> (
          match (decay a.ty, decay b.ty) with
          | Ast.Tptr t, (Ast.Tint | Ast.Tchar) -> e.ty <- Ast.Tptr t
          | (Ast.Tint | Ast.Tchar), Ast.Tptr t ->
              if op = Ast.Sub then fail loc "cannot subtract a pointer from an integer";
              e.ty <- Ast.Tptr t
          | Ast.Tptr ta, Ast.Tptr _ ->
              if op = Ast.Add then fail loc "cannot add two pointers";
              ignore ta;
              e.ty <- Ast.Tint
          | _ -> e.ty <- Ast.Tint)
      | Ast.Mul | Ast.Div | Ast.Rem | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr ->
          e.ty <- Ast.Tint
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Land | Ast.Lor ->
          e.ty <- Ast.Tint)
  | Ast.Assign (lhs, rhs) ->
      check_expr env scope lhs;
      check_expr env scope rhs;
      if not (is_lvalue lhs) then fail loc "assignment target is not an lvalue";
      if not (scalar rhs.ty) then fail loc "cannot assign a void value";
      e.ty <- lhs.ty
  | Ast.Call (name, args) -> (
      List.iter (check_expr env scope) args;
      match Hashtbl.find_opt env.funcs name with
      | Some f ->
          if List.length args <> List.length f.params then
            fail loc "%s expects %d arguments, got %d" name (List.length f.params)
              (List.length args);
          e.ty <- f.ret
      | None -> (
          match Vlibc.lookup name with
          | Some s ->
              if List.length args <> List.length s.params then
                fail loc "%s expects %d arguments, got %d" name (List.length s.params)
                  (List.length args);
              e.ty <- s.ret
          | None -> fail loc "call to undefined function %s" name))
  | Ast.Index (a, i) -> (
      check_expr env scope a;
      check_expr env scope i;
      match decay a.ty with
      | Ast.Tptr t -> e.ty <- t
      | other -> fail loc "cannot index %s" (Format.asprintf "%a" Ast.pp_ty other))
  | Ast.Cond (c, a, b) ->
      check_expr env scope c;
      check_expr env scope a;
      check_expr env scope b;
      e.ty <- a.ty);
  ()

let rec check_stmt env scope ~in_loop ~fname (s : Ast.stmt) : unit =
  match s with
  | Ast.Expr e -> check_expr env scope e
  | Ast.Decl (ty, name, init, loc) ->
      (match ty with
      | Ast.Tvoid -> fail loc "cannot declare a void variable"
      | Ast.Tarray (_, n) when n <= 0 -> fail loc "array size must be positive"
      | _ -> ());
      (match init with
      | Some e ->
          check_expr env scope e;
          if not (scalar e.ty) then fail loc "cannot initialize from void"
      | None -> ());
      declare scope loc name ty
  | Ast.If (c, t, f) ->
      check_expr env scope c;
      let ts = new_scope (Some scope) and fs = new_scope (Some scope) in
      List.iter (check_stmt env ts ~in_loop ~fname) t;
      List.iter (check_stmt env fs ~in_loop ~fname) f
  | Ast.While (c, body) ->
      check_expr env scope c;
      let bs = new_scope (Some scope) in
      List.iter (check_stmt env bs ~in_loop:true ~fname) body
  | Ast.Dowhile (body, c) ->
      let bs = new_scope (Some scope) in
      List.iter (check_stmt env bs ~in_loop:true ~fname) body;
      check_expr env bs c
  | Ast.For (init, cond, step, body) ->
      let fs = new_scope (Some scope) in
      (match init with Some s -> check_stmt env fs ~in_loop ~fname s | None -> ());
      (match cond with Some e -> check_expr env fs e | None -> ());
      (match step with Some e -> check_expr env fs e | None -> ());
      let bs = new_scope (Some fs) in
      List.iter (check_stmt env bs ~in_loop:true ~fname) body
  | Ast.Return (e, _loc) -> (
      match e with Some e -> check_expr env scope e | None -> ())
  | Ast.Break loc -> if not in_loop then fail loc "break outside a loop"
  | Ast.Continue loc -> if not in_loop then fail loc "continue outside a loop"
  | Ast.Block body ->
      let bs = new_scope (Some scope) in
      List.iter (check_stmt env bs ~in_loop ~fname) body

let check_func env (f : Ast.func) =
  if Vlibc.is_builtin f.fname then
    fail f.floc "%s shadows a libc builtin" f.fname;
  (* virtine functions cross the marshalling boundary: parameters must be
     scalar 64-bit words (§7.2's ABI challenge) *)
  (match f.annot with
  | Ast.Not_virtine -> ()
  | Ast.Virtine | Ast.Virtine_permissive | Ast.Virtine_config _ ->
      if List.length f.params > 6 then
        fail f.floc "virtine functions take at most 6 marshalled arguments";
      List.iter
        (fun (ty, name) ->
          match ty with
          | Ast.Tint | Ast.Tchar -> ()
          | Ast.Tptr _ | Ast.Tarray _ | Ast.Tvoid ->
              fail f.floc
                "virtine parameter %s must be a scalar (pointers do not cross the \
                 marshalling boundary)"
                name)
        f.params);
  let scope = new_scope None in
  List.iter (fun (ty, name) -> declare scope f.floc name ty) f.params;
  List.iter (check_stmt env scope ~in_loop:false ~fname:f.fname) f.body

let check (prog : Ast.program) =
  let globals = Hashtbl.create 16 and funcs = Hashtbl.create 16 in
  List.iter
    (fun (g : Ast.global) ->
      if Hashtbl.mem globals g.gname then fail g.gloc "duplicate global %s" g.gname;
      (match (g.gty, g.init) with
      | Ast.Tvoid, _ -> fail g.gloc "cannot declare a void global"
      | Ast.Tarray (_, n), Some (Ast.Array_init vs) when List.length vs > n ->
          fail g.gloc "initializer longer than array"
      | Ast.Tarray (Ast.Tchar, n), Some (Ast.String_init s) when String.length s + 1 > n
        ->
          fail g.gloc "string initializer longer than array"
      | _ -> ());
      Hashtbl.replace globals g.gname g.gty)
    prog.globals;
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem funcs f.fname then fail f.floc "duplicate function %s" f.fname;
      Hashtbl.replace funcs f.fname f)
    prog.funcs;
  let env = { globals; funcs } in
  List.iter (check_func env) prog.funcs;
  prog

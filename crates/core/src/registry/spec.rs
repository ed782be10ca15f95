//! The typed `SetupSpec` model: everything a FLASH-style setup module
//! hard-codes, as data.
//!
//! A spec is parsed from the RON-lite text format ([`super::parse`]) into
//! this fully-validated model: unknown keys, out-of-range dimensions, and
//! conflicting physics toggles are *typed* [`SpecError`]s, never panics.
//! [`SetupSpec::to_value`] serializes back; round-tripping is lossless
//! (property-tested in `crates/core/tests/spec_props.rs`).

use std::fmt;

use rflash_mesh::{vars, BoundaryCondition, Geometry, MeshConfig};

use super::parse::{self, ParseError, Value};

/// Errors from spec parsing/validation — typed so callers (CLI, registry,
/// tests) can distinguish a typo from a semantic conflict.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The text failed to lex/parse.
    Parse(ParseError),
    /// A struct carried a field the schema does not know.
    UnknownKey { at: String, key: String },
    /// A required field is absent.
    Missing { at: String, key: String },
    /// A field has the wrong shape.
    Type {
        at: String,
        expected: &'static str,
        found: &'static str,
    },
    /// A numeric field is outside its legal range.
    Range { at: String, detail: String },
    /// Two toggles that cannot coexist (e.g. a hydrostatic star without a
    /// Helmholtz EOS, monopole gravity without a star).
    Conflict { detail: String },
    /// `registry::load` was asked for a scenario that is not registered.
    UnknownScenario { name: String },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "{e}"),
            SpecError::UnknownKey { at, key } => {
                write!(f, "unknown key `{key}` in `{at}`")
            }
            SpecError::Missing { at, key } => {
                write!(f, "missing required key `{key}` in `{at}`")
            }
            SpecError::Type {
                at,
                expected,
                found,
            } => write!(f, "`{at}`: expected {expected}, found {found}"),
            SpecError::Range { at, detail } => write!(f, "`{at}`: {detail}"),
            SpecError::Conflict { detail } => write!(f, "conflicting spec: {detail}"),
            SpecError::UnknownScenario { name } => {
                write!(f, "no registered scenario named `{name}`")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e)
    }
}

/// Which EOS the scenario runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EosSpec {
    /// Ideal gamma-law gas.
    Gamma { gamma: f64 },
    /// Tabulated Helmholtz free-energy EOS (stellar matter).
    Helmholtz { coarse_table: bool },
}

/// Uniform composition of the material.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompositionSpec {
    /// Fully-ionized hydrogen-like ideal gas (abar = zbar = 1).
    Ideal,
    /// 50/50 carbon/oxygen by mass.
    CoHalf,
}

impl CompositionSpec {
    pub fn to_composition(self) -> crate::eos_choice::Composition {
        match self {
            CompositionSpec::Ideal => crate::eos_choice::Composition::ideal(),
            CompositionSpec::CoHalf => crate::eos_choice::Composition::co_half(),
        }
    }
}

/// Which `(dens, X)` pair the init-time EOS call closes the state from.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum InitMode {
    /// Primitives set pressure; EOS yields eint/temp (Sedov, Sod, …).
    #[default]
    DensPres,
    /// Primitives set temperature; EOS yields pres/eint (stellar setups).
    DensTemp,
}

/// Mesh geometry + AMR limits, spec-side.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshSpec {
    pub ndim: usize,
    pub nxb: usize,
    pub nguard: usize,
    pub max_blocks: usize,
    pub nroot: [usize; 3],
    pub domain_lo: [f64; 3],
    pub domain_hi: [f64; 3],
    pub min_refine: u8,
    pub max_refine: u8,
    pub bc_default: BcSpec,
    /// Per-face overrides, `[axis][side]`, side 0 = low.
    pub bc_faces: [[Option<BcSpec>; 2]; 3],
    pub geometry: GeometrySpec,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcSpec {
    Outflow,
    Reflecting,
    Periodic,
}

impl BcSpec {
    fn to_mesh(self) -> BoundaryCondition {
        match self {
            BcSpec::Outflow => BoundaryCondition::Outflow,
            BcSpec::Reflecting => BoundaryCondition::Reflecting,
            BcSpec::Periodic => BoundaryCondition::Periodic,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometrySpec {
    Cartesian,
    CylindricalRZ,
}

impl GeometrySpec {
    pub fn to_mesh(self) -> Geometry {
        match self {
            GeometrySpec::Cartesian => Geometry::Cartesian,
            GeometrySpec::CylindricalRZ => Geometry::CylindricalRZ,
        }
    }
}

impl MeshSpec {
    /// The concrete mesh configuration this spec describes.
    pub fn to_mesh_config(&self) -> MeshConfig {
        let bc_faces = self
            .bc_faces
            .map(|axis| axis.map(|side| side.map(BcSpec::to_mesh)));
        MeshConfig {
            ndim: self.ndim,
            nxb: self.nxb,
            nguard: self.nguard,
            nvar: vars::NVAR,
            max_blocks: self.max_blocks,
            nroot: self.nroot,
            domain_lo: self.domain_lo,
            domain_hi: self.domain_hi,
            min_refine: self.min_refine,
            max_refine: self.max_refine,
            bc: self.bc_default.to_mesh(),
            bc_faces,
            geometry: self.geometry.to_mesh(),
        }
    }
}

/// A partial per-cell override: any subset of the primitive fields. Used
/// by `uniform` (whole domain) and `slab` (axis-bounded region).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FieldSet {
    pub dens: Option<f64>,
    pub pres: Option<f64>,
    pub temp: Option<f64>,
    pub velx: Option<f64>,
    pub vely: Option<f64>,
    pub velz: Option<f64>,
    pub flam: Option<f64>,
}

/// One side of a planar discontinuity: density, normal velocity, pressure
/// (FLASH's `sim_rhoLeft` / `sim_pLeft` / `sim_uLeft`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SideState {
    pub dens: f64,
    pub vel: f64,
    pub pres: f64,
}

/// Optional Gaussian envelope applied to a perturbation along one axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    pub axis: usize,
    pub center: f64,
    pub sigma: f64,
}

/// The initial-condition primitives. Applied in spec order; later
/// primitives see (and may blend against) the fields earlier ones set.
#[derive(Clone, Debug, PartialEq)]
pub enum IcPrimitive {
    /// Set fields over the whole domain (the ambient state).
    Uniform(FieldSet),
    /// Set fields where `from <= x[axis] < to` (either bound optional).
    Slab {
        axis: usize,
        from: Option<f64>,
        to: Option<f64>,
        set: FieldSet,
    },
    /// Point (r_inner = 0) or annular energy deposition: total energy
    /// `energy` spread over the shell `r_inner..r_outer` (radii in units
    /// of the finest zone size), pressure blended by sub-zone sampling so
    /// the deposit integrates to `energy` however the shell cuts cells.
    Deposit {
        center: [f64; 3],
        energy: f64,
        r_inner_cells: f64,
        r_outer_cells: f64,
        nsub: usize,
    },
    /// A planar discontinuity at `x[axis] = at` (Sod-style): dens/pres and
    /// the *normal* velocity component per side.
    PlanarDiscontinuity {
        axis: usize,
        at: f64,
        left: SideState,
        right: SideState,
    },
    /// Add a sinusoidal velocity perturbation:
    /// `v[component] += amplitude · Π_d cos(2π(mode_d·frac_d + phase_d)) · envelope`.
    VelocityPerturbation {
        /// 0 = velx, 1 = vely, 2 = velz.
        component: usize,
        amplitude: f64,
        mode: [f64; 3],
        phase: [f64; 3],
        envelope: Option<Envelope>,
    },
    /// A 1-d hydrostatic white dwarf (Helmholtz EOS required) mapped onto
    /// the grid by radius about the origin: `dens = max(ρ(r), rho_fluff)`.
    HydrostaticStar {
        rho_c: f64,
        temp: f64,
        rho_fluff: f64,
    },
    /// Ignite a central match-head: `temp := temp_ignite`, `flam := 1`
    /// inside `radius` (cm) of the origin.
    Ignite { radius: f64, temp: f64 },
    /// Local hydrostatic pressure stratification about an interface:
    /// `pres = p_interface + dens·g·(x[axis] − interface)` using the
    /// cell's current density (Rayleigh–Taylor style layering).
    StratifiedPressure {
        axis: usize,
        interface: f64,
        p_interface: f64,
        g: f64,
    },
}

/// Refinement configuration: which variables the Löhner estimator reads
/// during initial refinement and at runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct RefineSpec {
    /// Estimator variables for the iterated *initial* refinement.
    pub init_vars: Vec<usize>,
    /// Estimator variables for runtime regrids (`Simulation::refine_vars`).
    pub runtime_vars: Vec<usize>,
}

/// ADR model-flame toggle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlameSpec {
    pub quench_dens: f64,
    pub x_c: f64,
    /// Override the tabulated laminar speed (constant-speed studies).
    pub fixed_speed: Option<f64>,
}

/// Gravity toggle.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum GravitySpec {
    #[default]
    None,
    /// Uniform acceleration vector (Rayleigh–Taylor).
    Constant([f64; 3]),
    /// Monopole field from the hydrostatic star's 1-d M(<r) profile;
    /// requires a [`IcPrimitive::HydrostaticStar`] primitive.
    StarMonopole { shells: usize },
}

/// Physics toggles beyond pure hydro + EOS.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PhysicsSpec {
    pub flame: Option<FlameSpec>,
    pub gravity: GravitySpec,
}

/// Step/dt budgets and runtime-parameter deltas the setup wants.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetSpec {
    pub cfl: f64,
    /// Lower bounds merged into the runtime floors via `max`.
    pub dens_floor: f64,
    pub eint_floor: f64,
    pub regrid_every: u64,
    pub gravity_every: u64,
}

impl Default for BudgetSpec {
    fn default() -> Self {
        BudgetSpec {
            cfl: 0.3,
            dens_floor: 1e-30,
            eint_floor: 1e-30,
            regrid_every: 4,
            gravity_every: 2,
        }
    }
}

/// Smoke-scale overrides: the reduced problem the golden corpus runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SmokeSpec {
    pub steps: u64,
    pub nxb: Option<usize>,
    pub max_refine: Option<u8>,
    pub max_blocks: Option<usize>,
    /// Force the coarse Helmholtz table at smoke scale.
    pub coarse_table: bool,
}

/// A complete declarative setup.
#[derive(Clone, Debug, PartialEq)]
pub struct SetupSpec {
    pub name: String,
    pub title: String,
    pub mesh: MeshSpec,
    pub eos: EosSpec,
    pub composition: CompositionSpec,
    pub init_mode: InitMode,
    pub initial: Vec<IcPrimitive>,
    pub refine: RefineSpec,
    pub physics: PhysicsSpec,
    pub budgets: BudgetSpec,
    pub smoke: SmokeSpec,
}

// ---------------------------------------------------------------------------
// Value -> typed model
// ---------------------------------------------------------------------------

/// Cursor over a struct's fields that rejects unknown keys when dropped.
struct Fields {
    at: String,
    inner: Vec<(String, Value)>,
}

impl Fields {
    fn from_value(at: &str, v: Value, want_tag: Option<&str>) -> Result<Fields, SpecError> {
        match v {
            Value::Struct { tag, fields } => {
                if let Some(want) = want_tag {
                    if tag.as_deref() != Some(want) {
                        return Err(SpecError::Type {
                            at: at.into(),
                            expected: "a differently-tagged struct",
                            found: "struct",
                        });
                    }
                }
                Ok(Fields {
                    at: at.to_string(),
                    inner: fields,
                })
            }
            other => Err(SpecError::Type {
                at: at.into(),
                expected: "struct",
                found: other.kind(),
            }),
        }
    }

    fn take(&mut self, key: &str) -> Option<Value> {
        let idx = self.inner.iter().position(|(k, _)| k == key)?;
        Some(self.inner.remove(idx).1)
    }

    fn required(&mut self, key: &str) -> Result<Value, SpecError> {
        self.take(key).ok_or_else(|| SpecError::Missing {
            at: self.at.clone(),
            key: key.into(),
        })
    }

    /// Every field must have been consumed; leftovers are unknown keys.
    fn finish(self) -> Result<(), SpecError> {
        if let Some((key, _)) = self.inner.into_iter().next() {
            return Err(SpecError::UnknownKey { at: self.at, key });
        }
        Ok(())
    }

    fn path(&self, key: &str) -> String {
        format!("{}.{key}", self.at)
    }
}

fn as_f64(at: &str, v: Value) -> Result<f64, SpecError> {
    match v {
        Value::Num(x) => Ok(x),
        other => Err(SpecError::Type {
            at: at.into(),
            expected: "number",
            found: other.kind(),
        }),
    }
}

fn as_usize(at: &str, v: Value) -> Result<usize, SpecError> {
    let x = as_f64(at, v)?;
    if x < 0.0 || x.fract() != 0.0 || x > u32::MAX as f64 {
        return Err(SpecError::Range {
            at: at.into(),
            detail: format!("{x} is not a non-negative integer"),
        });
    }
    Ok(x as usize)
}

fn as_u64(at: &str, v: Value) -> Result<u64, SpecError> {
    Ok(as_usize(at, v)? as u64)
}

fn as_bool(at: &str, v: Value) -> Result<bool, SpecError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(SpecError::Type {
            at: at.into(),
            expected: "bool",
            found: other.kind(),
        }),
    }
}

fn as_str(at: &str, v: Value) -> Result<String, SpecError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(SpecError::Type {
            at: at.into(),
            expected: "string",
            found: other.kind(),
        }),
    }
}

fn as_vec3_f64(at: &str, v: Value) -> Result<[f64; 3], SpecError> {
    let Value::List(items) = v else {
        return Err(SpecError::Type {
            at: at.into(),
            expected: "list of 3 numbers",
            found: v.kind(),
        });
    };
    if items.len() != 3 {
        return Err(SpecError::Range {
            at: at.into(),
            detail: format!("expected 3 entries, found {}", items.len()),
        });
    }
    let mut out = [0.0; 3];
    for (i, item) in items.into_iter().enumerate() {
        out[i] = as_f64(&format!("{at}[{i}]"), item)?;
    }
    Ok(out)
}

fn as_vec3_usize(at: &str, v: Value) -> Result<[usize; 3], SpecError> {
    let f = as_vec3_f64(at, v)?;
    let mut out = [0usize; 3];
    for (i, x) in f.iter().enumerate() {
        if *x < 0.0 || x.fract() != 0.0 {
            return Err(SpecError::Range {
                at: at.into(),
                detail: format!("entry {i} ({x}) is not a non-negative integer"),
            });
        }
        out[i] = *x as usize;
    }
    Ok(out)
}

/// Axis name → index.
fn as_axis(at: &str, v: Value) -> Result<usize, SpecError> {
    match v {
        Value::Unit(s) => match s.as_str() {
            "x" => Ok(0),
            "y" => Ok(1),
            "z" => Ok(2),
            _ => Err(SpecError::Range {
                at: at.into(),
                detail: format!("unknown axis `{s}` (expected x, y, or z)"),
            }),
        },
        other => Err(SpecError::Type {
            at: at.into(),
            expected: "axis identifier (x | y | z)",
            found: other.kind(),
        }),
    }
}

/// Variable name list → indices, via [`vars::VAR_NAMES`].
fn as_var_list(at: &str, v: Value) -> Result<Vec<usize>, SpecError> {
    let Value::List(items) = v else {
        return Err(SpecError::Type {
            at: at.into(),
            expected: "list of variable names",
            found: v.kind(),
        });
    };
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let at_i = format!("{at}[{i}]");
        let name = match item {
            Value::Str(s) => s,
            Value::Unit(s) => s,
            other => {
                return Err(SpecError::Type {
                    at: at_i,
                    expected: "variable name",
                    found: other.kind(),
                })
            }
        };
        let Some(idx) = vars::VAR_NAMES.iter().position(|n| *n == name) else {
            return Err(SpecError::Range {
                at: at_i,
                detail: format!("unknown variable `{name}`"),
            });
        };
        out.push(idx);
    }
    Ok(out)
}

fn field_set(mut f: Fields) -> Result<FieldSet, SpecError> {
    let mut set = FieldSet::default();
    for (key, slot) in [
        ("dens", &mut set.dens),
        ("pres", &mut set.pres),
        ("temp", &mut set.temp),
        ("velx", &mut set.velx),
        ("vely", &mut set.vely),
        ("velz", &mut set.velz),
        ("flam", &mut set.flam),
    ] {
        if let Some(v) = f.take(key) {
            *slot = Some(as_f64(&f.path(key), v)?);
        }
    }
    f.finish()?;
    Ok(set)
}

fn side_state(at: &str, v: Value) -> Result<SideState, SpecError> {
    let mut f = Fields::from_value(at, v, None)?;
    let dens = as_f64(&f.path("dens"), f.required("dens")?)?;
    let pres = as_f64(&f.path("pres"), f.required("pres")?)?;
    let vel = match f.take("vel") {
        Some(v) => as_f64(&f.path("vel"), v)?,
        None => 0.0,
    };
    f.finish()?;
    Ok(SideState { dens, vel, pres })
}

fn ic_primitive(at: &str, v: Value) -> Result<IcPrimitive, SpecError> {
    let Value::Struct {
        tag: Some(tag),
        fields,
    } = v
    else {
        return Err(SpecError::Type {
            at: at.into(),
            expected: "tagged primitive struct (uniform(...), deposit(...), …)",
            found: v.kind(),
        });
    };
    let at = format!("{at}.{tag}");
    let mut f = Fields {
        at: at.clone(),
        inner: fields,
    };
    let prim = match tag.as_str() {
        "uniform" => IcPrimitive::Uniform(field_set(f)?),
        "slab" => {
            let axis = as_axis(&f.path("axis"), f.required("axis")?)?;
            let from = f.take("from").map(|v| as_f64(&at, v)).transpose()?;
            let to = f.take("to").map(|v| as_f64(&at, v)).transpose()?;
            let set = match f.take("set") {
                Some(v) => field_set(Fields::from_value(&format!("{at}.set"), v, None)?)?,
                None => {
                    return Err(SpecError::Missing {
                        at,
                        key: "set".into(),
                    })
                }
            };
            f.finish()?;
            IcPrimitive::Slab {
                axis,
                from,
                to,
                set,
            }
        }
        "deposit" => {
            let center = as_vec3_f64(&f.path("center"), f.required("center")?)?;
            let energy = as_f64(&f.path("energy"), f.required("energy")?)?;
            let r_outer_cells = as_f64(&f.path("r_outer_cells"), f.required("r_outer_cells")?)?;
            let r_inner_cells = match f.take("r_inner_cells") {
                Some(v) => as_f64(&f.path("r_inner_cells"), v)?,
                None => 0.0,
            };
            let nsub = match f.take("nsub") {
                Some(v) => as_usize(&f.path("nsub"), v)?,
                None => 4,
            };
            f.finish()?;
            // NaN radii must fail too, hence the explicit is_nan checks.
            if r_inner_cells.is_nan()
                || r_outer_cells.is_nan()
                || r_outer_cells <= r_inner_cells
                || r_inner_cells < 0.0
            {
                return Err(SpecError::Range {
                    at,
                    detail: format!(
                        "deposit radii must satisfy 0 <= r_inner ({r_inner_cells}) < r_outer \
                         ({r_outer_cells})"
                    ),
                });
            }
            if nsub == 0 {
                return Err(SpecError::Range {
                    at,
                    detail: "nsub must be >= 1".into(),
                });
            }
            IcPrimitive::Deposit {
                center,
                energy,
                r_inner_cells,
                r_outer_cells,
                nsub,
            }
        }
        "planar_discontinuity" => {
            let axis = as_axis(&f.path("axis"), f.required("axis")?)?;
            let prim_at = as_f64(&f.path("at"), f.required("at")?)?;
            let left = side_state(&f.path("left"), f.required("left")?)?;
            let right = side_state(&f.path("right"), f.required("right")?)?;
            f.finish()?;
            IcPrimitive::PlanarDiscontinuity {
                axis,
                at: prim_at,
                left,
                right,
            }
        }
        "velocity_perturbation" => {
            let component = match f.required("component")? {
                Value::Unit(s) => match s.as_str() {
                    "velx" => 0,
                    "vely" => 1,
                    "velz" => 2,
                    _ => {
                        return Err(SpecError::Range {
                            at,
                            detail: format!("unknown velocity component `{s}`"),
                        })
                    }
                },
                other => {
                    return Err(SpecError::Type {
                        at,
                        expected: "velx | vely | velz",
                        found: other.kind(),
                    })
                }
            };
            let amplitude = as_f64(&f.path("amplitude"), f.required("amplitude")?)?;
            let mode = as_vec3_f64(&f.path("mode"), f.required("mode")?)?;
            let phase = match f.take("phase") {
                Some(v) => as_vec3_f64(&f.path("phase"), v)?,
                None => [0.0; 3],
            };
            let envelope = match f.take("envelope") {
                Some(v) => {
                    let mut ef = Fields::from_value(&format!("{at}.envelope"), v, None)?;
                    let axis = as_axis(&ef.path("axis"), ef.required("axis")?)?;
                    let center = as_f64(&ef.path("center"), ef.required("center")?)?;
                    let sigma = as_f64(&ef.path("sigma"), ef.required("sigma")?)?;
                    ef.finish()?;
                    if sigma.is_nan() || sigma <= 0.0 {
                        return Err(SpecError::Range {
                            at,
                            detail: format!("envelope sigma must be > 0 (got {sigma})"),
                        });
                    }
                    Some(Envelope {
                        axis,
                        center,
                        sigma,
                    })
                }
                None => None,
            };
            f.finish()?;
            IcPrimitive::VelocityPerturbation {
                component,
                amplitude,
                mode,
                phase,
                envelope,
            }
        }
        "hydrostatic_star" => {
            let rho_c = as_f64(&f.path("rho_c"), f.required("rho_c")?)?;
            let temp = as_f64(&f.path("temp"), f.required("temp")?)?;
            let rho_fluff = as_f64(&f.path("rho_fluff"), f.required("rho_fluff")?)?;
            f.finish()?;
            if !(rho_c > 0.0 && rho_fluff > 0.0 && temp > 0.0) {
                return Err(SpecError::Range {
                    at,
                    detail: "rho_c, temp, and rho_fluff must all be positive".into(),
                });
            }
            IcPrimitive::HydrostaticStar {
                rho_c,
                temp,
                rho_fluff,
            }
        }
        "ignite" => {
            let radius = as_f64(&f.path("radius"), f.required("radius")?)?;
            let temp = as_f64(&f.path("temp"), f.required("temp")?)?;
            f.finish()?;
            if radius.is_nan() || radius <= 0.0 {
                return Err(SpecError::Range {
                    at,
                    detail: format!("ignite radius must be > 0 (got {radius})"),
                });
            }
            IcPrimitive::Ignite { radius, temp }
        }
        "stratified_pressure" => {
            let axis = as_axis(&f.path("axis"), f.required("axis")?)?;
            let interface = as_f64(&f.path("interface"), f.required("interface")?)?;
            let p_interface = as_f64(&f.path("p_interface"), f.required("p_interface")?)?;
            let g = as_f64(&f.path("g"), f.required("g")?)?;
            f.finish()?;
            IcPrimitive::StratifiedPressure {
                axis,
                interface,
                p_interface,
                g,
            }
        }
        other => {
            return Err(SpecError::Range {
                at,
                detail: format!("unknown initial-condition primitive `{other}`"),
            })
        }
    };
    Ok(prim)
}

fn mesh_spec(v: Value) -> Result<MeshSpec, SpecError> {
    let mut f = Fields::from_value("mesh", v, None)?;
    let ndim = as_usize(&f.path("ndim"), f.required("ndim")?)?;
    let nxb = as_usize(&f.path("nxb"), f.required("nxb")?)?;
    let nguard = match f.take("nguard") {
        Some(v) => as_usize(&f.path("nguard"), v)?,
        None => 4,
    };
    let max_blocks = as_usize(&f.path("max_blocks"), f.required("max_blocks")?)?;
    let nroot = match f.take("nroot") {
        Some(v) => as_vec3_usize(&f.path("nroot"), v)?,
        None => [1, 1, 1],
    };
    let domain_lo = as_vec3_f64(&f.path("domain_lo"), f.required("domain_lo")?)?;
    let domain_hi = as_vec3_f64(&f.path("domain_hi"), f.required("domain_hi")?)?;
    let min_refine = match f.take("min_refine") {
        Some(v) => as_usize(&f.path("min_refine"), v)? as u8,
        None => 0,
    };
    let max_refine_raw = as_usize(&f.path("max_refine"), f.required("max_refine")?)?;
    let geometry = match f.take("geometry") {
        Some(Value::Unit(s)) => match s.as_str() {
            "cartesian" => GeometrySpec::Cartesian,
            "cylindrical_rz" => GeometrySpec::CylindricalRZ,
            _ => {
                return Err(SpecError::Range {
                    at: "mesh.geometry".into(),
                    detail: format!("unknown geometry `{s}`"),
                })
            }
        },
        Some(other) => {
            return Err(SpecError::Type {
                at: "mesh.geometry".into(),
                expected: "cartesian | cylindrical_rz",
                found: other.kind(),
            })
        }
        None => GeometrySpec::Cartesian,
    };
    // `unk` has one index order, FLASH's. Specs written before the SoA
    // ablation layout was retired may still name the FLASH order.
    match f.take("layout") {
        Some(Value::Unit(s)) if s == "var_first" => {}
        Some(Value::Unit(s)) => {
            return Err(SpecError::Range {
                at: "mesh.layout".into(),
                detail: format!("layout `{s}` is not supported: `unk` has one order, `var_first`"),
            })
        }
        Some(other) => {
            return Err(SpecError::Type {
                at: "mesh.layout".into(),
                expected: "var_first",
                found: other.kind(),
            })
        }
        None => {}
    }
    let bc_default = match f.take("bc") {
        Some(v) => bc_spec("mesh.bc", v)?,
        None => BcSpec::Outflow,
    };
    let mut bc_faces = [[None; 2]; 3];
    if let Some(v) = f.take("bc_faces") {
        let mut bf = Fields::from_value("mesh.bc_faces", v, None)?;
        for (key, axis, side) in [
            ("x_lo", 0, 0),
            ("x_hi", 0, 1),
            ("y_lo", 1, 0),
            ("y_hi", 1, 1),
            ("z_lo", 2, 0),
            ("z_hi", 2, 1),
        ] {
            if let Some(v) = bf.take(key) {
                bc_faces[axis][side] = Some(bc_spec(&bf.path(key), v)?);
            }
        }
        bf.finish()?;
    }
    f.finish()?;

    // Out-of-range dimension checks — typed, not panics.
    if !(1..=3).contains(&ndim) {
        return Err(SpecError::Range {
            at: "mesh.ndim".into(),
            detail: format!("ndim must be 1, 2, or 3 (got {ndim})"),
        });
    }
    if !(2..=128).contains(&nxb) || !nxb.is_multiple_of(2) {
        return Err(SpecError::Range {
            at: "mesh.nxb".into(),
            detail: format!("nxb must be an even number in 2..=128 (got {nxb})"),
        });
    }
    if max_refine_raw > 12 {
        return Err(SpecError::Range {
            at: "mesh.max_refine".into(),
            detail: format!("max_refine must be <= 12 (got {max_refine_raw})"),
        });
    }
    let max_refine = max_refine_raw as u8;
    if min_refine > max_refine {
        return Err(SpecError::Range {
            at: "mesh.min_refine".into(),
            detail: format!("min_refine ({min_refine}) exceeds max_refine ({max_refine})"),
        });
    }
    if max_blocks == 0 {
        return Err(SpecError::Range {
            at: "mesh.max_blocks".into(),
            detail: "max_blocks must be >= 1".into(),
        });
    }
    for d in 0..ndim {
        if domain_hi[d].is_nan() || domain_lo[d].is_nan() || domain_hi[d] <= domain_lo[d] {
            return Err(SpecError::Range {
                at: format!("mesh.domain_hi[{d}]"),
                detail: format!(
                    "domain_hi ({}) must exceed domain_lo ({})",
                    domain_hi[d], domain_lo[d]
                ),
            });
        }
        if nroot[d] == 0 {
            return Err(SpecError::Range {
                at: format!("mesh.nroot[{d}]"),
                detail: "root-block counts must be >= 1".into(),
            });
        }
    }
    if geometry == GeometrySpec::CylindricalRZ && ndim != 2 {
        return Err(SpecError::Conflict {
            detail: format!("cylindrical_rz geometry requires ndim = 2 (got {ndim})"),
        });
    }
    Ok(MeshSpec {
        ndim,
        nxb,
        nguard,
        max_blocks,
        nroot,
        domain_lo,
        domain_hi,
        min_refine,
        max_refine,
        bc_default,
        bc_faces,
        geometry,
    })
}

fn bc_spec(at: &str, v: Value) -> Result<BcSpec, SpecError> {
    match v {
        Value::Unit(s) => match s.as_str() {
            "outflow" => Ok(BcSpec::Outflow),
            "reflecting" => Ok(BcSpec::Reflecting),
            "periodic" => Ok(BcSpec::Periodic),
            _ => Err(SpecError::Range {
                at: at.into(),
                detail: format!("unknown boundary condition `{s}`"),
            }),
        },
        other => Err(SpecError::Type {
            at: at.into(),
            expected: "outflow | reflecting | periodic",
            found: other.kind(),
        }),
    }
}

fn eos_spec(v: Value) -> Result<EosSpec, SpecError> {
    let Value::Struct {
        tag: Some(tag),
        fields,
    } = v
    else {
        return Err(SpecError::Type {
            at: "eos".into(),
            expected: "gamma(...) or helmholtz(...)",
            found: v.kind(),
        });
    };
    let mut f = Fields {
        at: format!("eos.{tag}"),
        inner: fields,
    };
    match tag.as_str() {
        "gamma" => {
            let gamma = as_f64(&f.path("gamma"), f.required("gamma")?)?;
            f.finish()?;
            if !(gamma > 1.0 && gamma < 3.0) {
                return Err(SpecError::Range {
                    at: "eos.gamma".into(),
                    detail: format!("gamma must be in (1, 3) (got {gamma})"),
                });
            }
            Ok(EosSpec::Gamma { gamma })
        }
        "helmholtz" => {
            let coarse_table = match f.take("coarse_table") {
                Some(v) => as_bool(&f.path("coarse_table"), v)?,
                None => false,
            };
            f.finish()?;
            Ok(EosSpec::Helmholtz { coarse_table })
        }
        other => Err(SpecError::Range {
            at: "eos".into(),
            detail: format!("unknown EOS `{other}`"),
        }),
    }
}

impl SetupSpec {
    /// Parse + validate a spec from its RON-lite source text.
    pub fn from_source(source: &str) -> Result<SetupSpec, SpecError> {
        let value = parse::parse(source)?;
        SetupSpec::from_value(value)
    }

    /// Build the typed spec from a parsed value, rejecting unknown keys
    /// and semantic conflicts.
    pub fn from_value(v: Value) -> Result<SetupSpec, SpecError> {
        let mut f = Fields::from_value("setup", v, Some("Setup"))?;
        let name = as_str(&f.path("name"), f.required("name")?)?;
        let title = match f.take("title") {
            Some(v) => as_str(&f.path("title"), v)?,
            None => String::new(),
        };
        let mesh = mesh_spec(f.required("mesh")?)?;
        let eos = eos_spec(f.required("eos")?)?;
        let composition = match f.take("composition") {
            Some(Value::Unit(s)) => match s.as_str() {
                "ideal" => CompositionSpec::Ideal,
                "co_half" => CompositionSpec::CoHalf,
                _ => {
                    return Err(SpecError::Range {
                        at: "setup.composition".into(),
                        detail: format!("unknown composition `{s}`"),
                    })
                }
            },
            Some(other) => {
                return Err(SpecError::Type {
                    at: "setup.composition".into(),
                    expected: "ideal | co_half",
                    found: other.kind(),
                })
            }
            None => CompositionSpec::Ideal,
        };
        let init_mode = match f.take("init_mode") {
            Some(Value::Unit(s)) => match s.as_str() {
                "dens_pres" => InitMode::DensPres,
                "dens_temp" => InitMode::DensTemp,
                _ => {
                    return Err(SpecError::Range {
                        at: "setup.init_mode".into(),
                        detail: format!("unknown init mode `{s}`"),
                    })
                }
            },
            Some(other) => {
                return Err(SpecError::Type {
                    at: "setup.init_mode".into(),
                    expected: "dens_pres | dens_temp",
                    found: other.kind(),
                })
            }
            None => InitMode::DensPres,
        };

        let initial = match f.required("initial")? {
            Value::List(items) => {
                let mut prims = Vec::with_capacity(items.len());
                for (i, item) in items.into_iter().enumerate() {
                    prims.push(ic_primitive(&format!("initial[{i}]"), item)?);
                }
                prims
            }
            other => {
                return Err(SpecError::Type {
                    at: "setup.initial".into(),
                    expected: "list of primitives",
                    found: other.kind(),
                })
            }
        };

        let refine = match f.take("refine") {
            Some(v) => {
                let mut rf = Fields::from_value("refine", v, None)?;
                let init_vars = as_var_list(&rf.path("vars"), rf.required("vars")?)?;
                let runtime_vars = match rf.take("runtime_vars") {
                    Some(v) => as_var_list(&rf.path("runtime_vars"), v)?,
                    None => init_vars.clone(),
                };
                rf.finish()?;
                RefineSpec {
                    init_vars,
                    runtime_vars,
                }
            }
            None => RefineSpec {
                init_vars: vec![vars::DENS, vars::PRES],
                runtime_vars: vec![vars::DENS, vars::PRES],
            },
        };

        let physics = match f.take("physics") {
            Some(v) => {
                let mut pf = Fields::from_value("physics", v, None)?;
                let flame = match pf.take("flame") {
                    Some(v) => {
                        let mut ff = Fields::from_value("physics.flame", v, None)?;
                        let quench_dens =
                            as_f64(&ff.path("quench_dens"), ff.required("quench_dens")?)?;
                        let x_c = as_f64(&ff.path("x_c"), ff.required("x_c")?)?;
                        let fixed_speed = ff
                            .take("fixed_speed")
                            .map(|v| as_f64("physics.flame.fixed_speed", v))
                            .transpose()?;
                        ff.finish()?;
                        if !(x_c > 0.0 && x_c <= 1.0) {
                            return Err(SpecError::Range {
                                at: "physics.flame.x_c".into(),
                                detail: format!("carbon fraction must be in (0, 1] (got {x_c})"),
                            });
                        }
                        Some(FlameSpec {
                            quench_dens,
                            x_c,
                            fixed_speed,
                        })
                    }
                    None => None,
                };
                let gravity = match pf.take("gravity") {
                    Some(Value::Unit(s)) if s == "none" => GravitySpec::None,
                    Some(Value::Struct {
                        tag: Some(tag),
                        fields,
                    }) => {
                        let mut gf = Fields {
                            at: format!("physics.gravity.{tag}"),
                            inner: fields,
                        };
                        match tag.as_str() {
                            "constant" => {
                                let g = as_vec3_f64(&gf.path("g"), gf.required("g")?)?;
                                gf.finish()?;
                                GravitySpec::Constant(g)
                            }
                            "star_monopole" => {
                                let shells = match gf.take("shells") {
                                    Some(v) => as_usize(&gf.path("shells"), v)?,
                                    None => 512,
                                };
                                gf.finish()?;
                                if shells < 2 {
                                    return Err(SpecError::Range {
                                        at: "physics.gravity.star_monopole.shells".into(),
                                        detail: "shells must be >= 2".into(),
                                    });
                                }
                                GravitySpec::StarMonopole { shells }
                            }
                            other => {
                                return Err(SpecError::Range {
                                    at: "physics.gravity".into(),
                                    detail: format!("unknown gravity `{other}`"),
                                })
                            }
                        }
                    }
                    Some(other) => {
                        return Err(SpecError::Type {
                            at: "physics.gravity".into(),
                            expected: "none | constant(...) | star_monopole(...)",
                            found: other.kind(),
                        })
                    }
                    None => GravitySpec::None,
                };
                pf.finish()?;
                PhysicsSpec { flame, gravity }
            }
            None => PhysicsSpec::default(),
        };

        let budgets = match f.take("budgets") {
            Some(v) => {
                let mut bf = Fields::from_value("budgets", v, None)?;
                let mut b = BudgetSpec::default();
                if let Some(v) = bf.take("cfl") {
                    b.cfl = as_f64(&bf.path("cfl"), v)?;
                }
                if let Some(v) = bf.take("dens_floor") {
                    b.dens_floor = as_f64(&bf.path("dens_floor"), v)?;
                }
                if let Some(v) = bf.take("eint_floor") {
                    b.eint_floor = as_f64(&bf.path("eint_floor"), v)?;
                }
                if let Some(v) = bf.take("regrid_every") {
                    b.regrid_every = as_u64(&bf.path("regrid_every"), v)?;
                }
                if let Some(v) = bf.take("gravity_every") {
                    b.gravity_every = as_u64(&bf.path("gravity_every"), v)?;
                }
                bf.finish()?;
                if !(b.cfl > 0.0 && b.cfl < 1.0) {
                    return Err(SpecError::Range {
                        at: "budgets.cfl".into(),
                        detail: format!("cfl must be in (0, 1) (got {})", b.cfl),
                    });
                }
                if b.gravity_every == 0 {
                    return Err(SpecError::Range {
                        at: "budgets.gravity_every".into(),
                        detail: "gravity_every must be >= 1".into(),
                    });
                }
                b
            }
            None => BudgetSpec::default(),
        };

        let smoke = match f.take("smoke") {
            Some(v) => {
                let mut sf = Fields::from_value("smoke", v, None)?;
                let steps = as_u64(&sf.path("steps"), sf.required("steps")?)?;
                let nxb = sf
                    .take("nxb")
                    .map(|v| as_usize("smoke.nxb", v))
                    .transpose()?;
                let max_refine = sf
                    .take("max_refine")
                    .map(|v| as_usize("smoke.max_refine", v).map(|x| x as u8))
                    .transpose()?;
                let max_blocks = sf
                    .take("max_blocks")
                    .map(|v| as_usize("smoke.max_blocks", v))
                    .transpose()?;
                let coarse_table = match sf.take("coarse_table") {
                    Some(v) => as_bool("smoke.coarse_table", v)?,
                    None => true,
                };
                sf.finish()?;
                if steps == 0 {
                    return Err(SpecError::Range {
                        at: "smoke.steps".into(),
                        detail: "smoke.steps must be >= 1".into(),
                    });
                }
                SmokeSpec {
                    steps,
                    nxb,
                    max_refine,
                    max_blocks,
                    coarse_table,
                }
            }
            None => SmokeSpec {
                steps: 3,
                nxb: None,
                max_refine: None,
                max_blocks: None,
                coarse_table: true,
            },
        };

        f.finish()?;

        let spec = SetupSpec {
            name,
            title,
            mesh,
            eos,
            composition,
            init_mode,
            initial,
            refine,
            physics,
            budgets,
            smoke,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field semantic validation: conflicting toggles are typed
    /// errors here, not downstream panics.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::Range {
                at: "setup.name".into(),
                detail: "name must be non-empty".into(),
            });
        }
        let has_star = self
            .initial
            .iter()
            .any(|p| matches!(p, IcPrimitive::HydrostaticStar { .. }));
        if has_star && !matches!(self.eos, EosSpec::Helmholtz { .. }) {
            return Err(SpecError::Conflict {
                detail: "hydrostatic_star requires the helmholtz EOS (a gamma-law gas has no \
                         degenerate-matter pressure to hold the star up)"
                    .into(),
            });
        }
        if matches!(self.physics.gravity, GravitySpec::StarMonopole { .. }) && !has_star {
            return Err(SpecError::Conflict {
                detail: "star_monopole gravity requires a hydrostatic_star primitive to source \
                         the M(<r) profile"
                    .into(),
            });
        }
        if matches!(self.init_mode, InitMode::DensTemp) && matches!(self.eos, EosSpec::Gamma { .. })
        {
            return Err(SpecError::Conflict {
                detail: "init_mode dens_temp requires the helmholtz EOS (the gamma law here is \
                         closed from pressure)"
                    .into(),
            });
        }
        let has_ignite = self
            .initial
            .iter()
            .any(|p| matches!(p, IcPrimitive::Ignite { .. }));
        if has_ignite && self.physics.flame.is_none() {
            return Err(SpecError::Conflict {
                detail: "ignite primitive without a flame physics toggle — the match-head would \
                         never burn"
                    .into(),
            });
        }
        for (i, p) in self.initial.iter().enumerate() {
            let axis = match p {
                IcPrimitive::Slab { axis, .. }
                | IcPrimitive::PlanarDiscontinuity { axis, .. }
                | IcPrimitive::StratifiedPressure { axis, .. } => Some(*axis),
                IcPrimitive::VelocityPerturbation { component, .. } => Some(*component),
                _ => None,
            };
            if let Some(axis) = axis {
                if axis >= self.mesh.ndim.max(1)
                    && !matches!(p, IcPrimitive::VelocityPerturbation { .. })
                {
                    return Err(SpecError::Range {
                        at: format!("initial[{i}]"),
                        detail: format!("axis {axis} out of range for a {}-d mesh", self.mesh.ndim),
                    });
                }
            }
        }
        for list in [&self.refine.init_vars, &self.refine.runtime_vars] {
            if list.is_empty() {
                return Err(SpecError::Range {
                    at: "refine".into(),
                    detail: "refinement variable lists must be non-empty".into(),
                });
            }
        }
        Ok(())
    }

    /// A clone with the smoke-scale overrides applied to the mesh and the
    /// EOS table resolution — the problem the golden corpus runs.
    pub fn at_smoke_scale(&self) -> SetupSpec {
        let mut s = self.clone();
        if let Some(nxb) = self.smoke.nxb {
            s.mesh.nxb = nxb;
        }
        if let Some(mr) = self.smoke.max_refine {
            s.mesh.max_refine = mr;
            s.mesh.min_refine = s.mesh.min_refine.min(mr);
        }
        if let Some(mb) = self.smoke.max_blocks {
            s.mesh.max_blocks = mb;
        }
        if self.smoke.coarse_table {
            if let EosSpec::Helmholtz { .. } = s.eos {
                s.eos = EosSpec::Helmholtz { coarse_table: true };
            }
        }
        s
    }

    // -- serialization back to Value / RON text --------------------------

    /// Serialize the typed spec back to a [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![("name".into(), Value::Str(self.name.clone()))];
        if !self.title.is_empty() {
            fields.push(("title".into(), Value::Str(self.title.clone())));
        }
        fields.push(("mesh".into(), self.mesh_value()));
        fields.push((
            "eos".into(),
            match self.eos {
                EosSpec::Gamma { gamma } => {
                    Value::tagged("gamma", vec![("gamma".into(), Value::Num(gamma))])
                }
                EosSpec::Helmholtz { coarse_table } => Value::tagged(
                    "helmholtz",
                    vec![("coarse_table".into(), Value::Bool(coarse_table))],
                ),
            },
        ));
        fields.push((
            "composition".into(),
            Value::Unit(
                match self.composition {
                    CompositionSpec::Ideal => "ideal",
                    CompositionSpec::CoHalf => "co_half",
                }
                .into(),
            ),
        ));
        fields.push((
            "init_mode".into(),
            Value::Unit(
                match self.init_mode {
                    InitMode::DensPres => "dens_pres",
                    InitMode::DensTemp => "dens_temp",
                }
                .into(),
            ),
        ));
        fields.push((
            "initial".into(),
            Value::List(self.initial.iter().map(prim_value).collect()),
        ));
        fields.push((
            "refine".into(),
            Value::rec(vec![
                ("vars".into(), var_list_value(&self.refine.init_vars)),
                (
                    "runtime_vars".into(),
                    var_list_value(&self.refine.runtime_vars),
                ),
            ]),
        ));
        let mut phys: Vec<(String, Value)> = Vec::new();
        if let Some(flame) = &self.physics.flame {
            let mut ff = vec![
                ("quench_dens".into(), Value::Num(flame.quench_dens)),
                ("x_c".into(), Value::Num(flame.x_c)),
            ];
            if let Some(s) = flame.fixed_speed {
                ff.push(("fixed_speed".into(), Value::Num(s)));
            }
            phys.push(("flame".into(), Value::rec(ff)));
        }
        phys.push((
            "gravity".into(),
            match self.physics.gravity {
                GravitySpec::None => Value::Unit("none".into()),
                GravitySpec::Constant(g) => Value::tagged(
                    "constant",
                    vec![(
                        "g".into(),
                        Value::List(g.iter().map(|x| Value::Num(*x)).collect()),
                    )],
                ),
                GravitySpec::StarMonopole { shells } => Value::tagged(
                    "star_monopole",
                    vec![("shells".into(), Value::Num(shells as f64))],
                ),
            },
        ));
        fields.push(("physics".into(), Value::rec(phys)));
        fields.push((
            "budgets".into(),
            Value::rec(vec![
                ("cfl".into(), Value::Num(self.budgets.cfl)),
                ("dens_floor".into(), Value::Num(self.budgets.dens_floor)),
                ("eint_floor".into(), Value::Num(self.budgets.eint_floor)),
                (
                    "regrid_every".into(),
                    Value::Num(self.budgets.regrid_every as f64),
                ),
                (
                    "gravity_every".into(),
                    Value::Num(self.budgets.gravity_every as f64),
                ),
            ]),
        ));
        let mut sm = vec![("steps".into(), Value::Num(self.smoke.steps as f64))];
        if let Some(nxb) = self.smoke.nxb {
            sm.push(("nxb".into(), Value::Num(nxb as f64)));
        }
        if let Some(mr) = self.smoke.max_refine {
            sm.push(("max_refine".into(), Value::Num(mr as f64)));
        }
        if let Some(mb) = self.smoke.max_blocks {
            sm.push(("max_blocks".into(), Value::Num(mb as f64)));
        }
        sm.push(("coarse_table".into(), Value::Bool(self.smoke.coarse_table)));
        fields.push(("smoke".into(), Value::rec(sm)));
        Value::tagged("Setup", fields)
    }

    fn mesh_value(&self) -> Value {
        let m = &self.mesh;
        let mut fields: Vec<(String, Value)> = vec![
            ("ndim".into(), Value::Num(m.ndim as f64)),
            ("nxb".into(), Value::Num(m.nxb as f64)),
            ("nguard".into(), Value::Num(m.nguard as f64)),
            ("max_blocks".into(), Value::Num(m.max_blocks as f64)),
            (
                "nroot".into(),
                Value::List(m.nroot.iter().map(|x| Value::Num(*x as f64)).collect()),
            ),
            (
                "domain_lo".into(),
                Value::List(m.domain_lo.iter().map(|x| Value::Num(*x)).collect()),
            ),
            (
                "domain_hi".into(),
                Value::List(m.domain_hi.iter().map(|x| Value::Num(*x)).collect()),
            ),
            ("min_refine".into(), Value::Num(m.min_refine as f64)),
            ("max_refine".into(), Value::Num(m.max_refine as f64)),
            (
                "geometry".into(),
                Value::Unit(
                    match m.geometry {
                        GeometrySpec::Cartesian => "cartesian",
                        GeometrySpec::CylindricalRZ => "cylindrical_rz",
                    }
                    .into(),
                ),
            ),
            ("bc".into(), bc_value(m.bc_default)),
        ];
        let mut faces: Vec<(String, Value)> = Vec::new();
        for (key, axis, side) in [
            ("x_lo", 0, 0),
            ("x_hi", 0, 1),
            ("y_lo", 1, 0),
            ("y_hi", 1, 1),
            ("z_lo", 2, 0),
            ("z_hi", 2, 1),
        ] {
            if let Some(bc) = m.bc_faces[axis][side] {
                faces.push((key.into(), bc_value(bc)));
            }
        }
        if !faces.is_empty() {
            fields.push(("bc_faces".into(), Value::rec(faces)));
        }
        Value::rec(fields)
    }
}

fn bc_value(bc: BcSpec) -> Value {
    Value::Unit(
        match bc {
            BcSpec::Outflow => "outflow",
            BcSpec::Reflecting => "reflecting",
            BcSpec::Periodic => "periodic",
        }
        .into(),
    )
}

fn var_list_value(idxs: &[usize]) -> Value {
    Value::List(
        idxs.iter()
            .map(|&i| Value::Str(vars::VAR_NAMES[i].into()))
            .collect(),
    )
}

fn field_set_value(set: &FieldSet) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for (key, v) in [
        ("dens", set.dens),
        ("pres", set.pres),
        ("temp", set.temp),
        ("velx", set.velx),
        ("vely", set.vely),
        ("velz", set.velz),
        ("flam", set.flam),
    ] {
        if let Some(x) = v {
            out.push((key.to_string(), Value::Num(x)));
        }
    }
    out
}

fn axis_value(axis: usize) -> Value {
    Value::Unit(["x", "y", "z"][axis.min(2)].into())
}

fn prim_value(p: &IcPrimitive) -> Value {
    match p {
        IcPrimitive::Uniform(set) => Value::tagged("uniform", field_set_value(set)),
        IcPrimitive::Slab {
            axis,
            from,
            to,
            set,
        } => {
            let mut fields = vec![("axis".into(), axis_value(*axis))];
            if let Some(x) = from {
                fields.push(("from".into(), Value::Num(*x)));
            }
            if let Some(x) = to {
                fields.push(("to".into(), Value::Num(*x)));
            }
            fields.push(("set".into(), Value::rec(field_set_value(set))));
            Value::tagged("slab", fields)
        }
        IcPrimitive::Deposit {
            center,
            energy,
            r_inner_cells,
            r_outer_cells,
            nsub,
        } => Value::tagged(
            "deposit",
            vec![
                (
                    "center".into(),
                    Value::List(center.iter().map(|x| Value::Num(*x)).collect()),
                ),
                ("energy".into(), Value::Num(*energy)),
                ("r_inner_cells".into(), Value::Num(*r_inner_cells)),
                ("r_outer_cells".into(), Value::Num(*r_outer_cells)),
                ("nsub".into(), Value::Num(*nsub as f64)),
            ],
        ),
        IcPrimitive::PlanarDiscontinuity {
            axis,
            at,
            left,
            right,
        } => Value::tagged(
            "planar_discontinuity",
            vec![
                ("axis".into(), axis_value(*axis)),
                ("at".into(), Value::Num(*at)),
                ("left".into(), side_value(left)),
                ("right".into(), side_value(right)),
            ],
        ),
        IcPrimitive::VelocityPerturbation {
            component,
            amplitude,
            mode,
            phase,
            envelope,
        } => {
            let mut fields = vec![
                (
                    "component".into(),
                    Value::Unit(["velx", "vely", "velz"][(*component).min(2)].into()),
                ),
                ("amplitude".into(), Value::Num(*amplitude)),
                (
                    "mode".into(),
                    Value::List(mode.iter().map(|x| Value::Num(*x)).collect()),
                ),
                (
                    "phase".into(),
                    Value::List(phase.iter().map(|x| Value::Num(*x)).collect()),
                ),
            ];
            if let Some(env) = envelope {
                fields.push((
                    "envelope".into(),
                    Value::rec(vec![
                        ("axis".into(), axis_value(env.axis)),
                        ("center".into(), Value::Num(env.center)),
                        ("sigma".into(), Value::Num(env.sigma)),
                    ]),
                ));
            }
            Value::tagged("velocity_perturbation", fields)
        }
        IcPrimitive::HydrostaticStar {
            rho_c,
            temp,
            rho_fluff,
        } => Value::tagged(
            "hydrostatic_star",
            vec![
                ("rho_c".into(), Value::Num(*rho_c)),
                ("temp".into(), Value::Num(*temp)),
                ("rho_fluff".into(), Value::Num(*rho_fluff)),
            ],
        ),
        IcPrimitive::Ignite { radius, temp } => Value::tagged(
            "ignite",
            vec![
                ("radius".into(), Value::Num(*radius)),
                ("temp".into(), Value::Num(*temp)),
            ],
        ),
        IcPrimitive::StratifiedPressure {
            axis,
            interface,
            p_interface,
            g,
        } => Value::tagged(
            "stratified_pressure",
            vec![
                ("axis".into(), axis_value(*axis)),
                ("interface".into(), Value::Num(*interface)),
                ("p_interface".into(), Value::Num(*p_interface)),
                ("g".into(), Value::Num(*g)),
            ],
        ),
    }
}

fn side_value(s: &SideState) -> Value {
    Value::rec(vec![
        ("dens".into(), Value::Num(s.dens)),
        ("vel".into(), Value::Num(s.vel)),
        ("pres".into(), Value::Num(s.pres)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_parses() {
        let src = r#"
            Setup(
                name: "mini",
                mesh: (
                    ndim: 2, nxb: 8, max_blocks: 64,
                    domain_lo: [0, 0, 0], domain_hi: [1, 1, 1],
                    max_refine: 1,
                ),
                eos: gamma(gamma: 1.4),
                initial: [uniform(dens: 1, pres: 1)],
            )
        "#;
        let spec = SetupSpec::from_source(src).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.mesh.nxb, 8);
        assert_eq!(spec.budgets.cfl, 0.3);
        assert_eq!(spec.smoke.steps, 3);
    }

    #[test]
    fn unknown_key_is_typed() {
        let src = r#"Setup(name: "x", bogus: 1, mesh: (ndim: 2, nxb: 8, max_blocks: 8,
            domain_lo: [0,0,0], domain_hi: [1,1,1], max_refine: 0),
            eos: gamma(gamma: 1.4), initial: [])"#;
        match SetupSpec::from_source(src) {
            Err(SpecError::UnknownKey { key, .. }) => assert_eq!(key, "bogus"),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_ndim_is_typed() {
        let src = r#"Setup(name: "x", mesh: (ndim: 4, nxb: 8, max_blocks: 8,
            domain_lo: [0,0,0], domain_hi: [1,1,1], max_refine: 0),
            eos: gamma(gamma: 1.4), initial: [])"#;
        match SetupSpec::from_source(src) {
            Err(SpecError::Range { at, .. }) => assert_eq!(at, "mesh.ndim"),
            other => panic!("expected Range, got {other:?}"),
        }
    }

    #[test]
    fn mesh_layout_accepts_only_the_flash_order() {
        let spec = |layout: &str| {
            SetupSpec::from_source(&format!(
                r#"Setup(name: "x", mesh: (ndim: 2, nxb: 8, max_blocks: 8,
                domain_lo: [0,0,0], domain_hi: [1,1,1], max_refine: 0, layout: {layout}),
                eos: gamma(gamma: 1.4), initial: [])"#
            ))
        };
        // Specs saved by an older `describe --ron` name the FLASH order.
        let old = spec("var_first").unwrap();
        assert!(!old.to_value().to_ron(0).contains("layout"));
        match spec("var_last") {
            Err(SpecError::Range { at, .. }) => assert_eq!(at, "mesh.layout"),
            other => panic!("expected Range at mesh.layout, got {other:?}"),
        }
    }

    #[test]
    fn star_without_helmholtz_conflicts() {
        let src = r#"Setup(name: "x", mesh: (ndim: 2, nxb: 8, max_blocks: 8,
            domain_lo: [0,0,0], domain_hi: [1,1,1], max_refine: 0),
            eos: gamma(gamma: 1.4),
            initial: [hydrostatic_star(rho_c: 2e9, temp: 5e7, rho_fluff: 1e4)])"#;
        assert!(matches!(
            SetupSpec::from_source(src),
            Err(SpecError::Conflict { .. })
        ));
    }

    #[test]
    fn round_trip_through_ron_text() {
        let src = r#"
            Setup(
                name: "rt",
                title: "round trip",
                mesh: (
                    ndim: 2, nxb: 8, max_blocks: 64, nroot: [2, 1, 1],
                    domain_lo: [0, 0, 0], domain_hi: [1, 0.5, 1],
                    max_refine: 2, bc: periodic,
                    bc_faces: (y_lo: reflecting, y_hi: reflecting),
                ),
                eos: gamma(gamma: 1.6666666666666667),
                initial: [
                    uniform(dens: 1, pres: 2.5, velx: -0.5),
                    slab(axis: y, from: 0.25, to: 0.75, set: (dens: 2, velx: 0.5)),
                    velocity_perturbation(component: vely, amplitude: 0.01,
                        mode: [2, 0, 0], phase: [-0.25, 0, 0]),
                ],
                physics: (gravity: constant(g: [0, -0.1, 0])),
            )
        "#;
        let spec = SetupSpec::from_source(src).unwrap();
        let text = spec.to_value().to_ron(0);
        let back = SetupSpec::from_source(&text).unwrap();
        assert_eq!(spec, back, "\n{text}");
    }
}
